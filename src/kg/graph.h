#ifndef ENTMATCHER_KG_GRAPH_H_
#define ENTMATCHER_KG_GRAPH_H_

#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "kg/triple.h"

namespace entmatcher {

/// The entity id space the TSV readers accept: an id at or above it is
/// refused before any graph is sized from it. 1 << 24 is more than 160x the
/// 100,000 entities of DWY100K-sim, the paper's largest benchmark, and keeps
/// a graph's adjacency offsets under 128 MB.
inline constexpr size_t kMaxEntities = size_t{1} << 24;

/// The relation pairs a dataset may span: LoadDatasetDir refuses a pair of
/// graphs whose n_rel_src * n_rel_tgt exceeds it, a side without relations
/// counting as one. Embedding and matching size tables from that product:
/// TransE's relation co-occurrence counts hold n_rel_src * n_rel_tgt
/// doubles, RelationCorrespondence's four times as many (both directions on
/// each side); and from each side's count, such as the structural
/// embedding's per-relation weights. 1 << 23 admits DBP15K ZH-EN's
/// 2,830 x 2,317 relations (6,557,110 pairs), the paper's largest
/// vocabularies, and bounds the two product tables at 64 MiB and 256 MiB.
inline constexpr size_t kMaxRelationPairs = size_t{1} << 23;

/// An immutable knowledge graph: a set of triples over dense entity and
/// relation id spaces, with a CSR adjacency index over both edge directions.
///
/// Construction validates that all ids are in range. Entity surface names are
/// optional (used by the name-embedding channel).
class KnowledgeGraph {
 public:
  /// One adjacency entry: `neighbor` reached via `relation`; `inverse` is
  /// true when this entity is the *object* of the underlying triple.
  struct Edge {
    EntityId neighbor;
    RelationId relation;
    bool inverse;
  };

  /// Builds a graph. Fails if any triple references an out-of-range id.
  static Result<KnowledgeGraph> Create(size_t num_entities,
                                       size_t num_relations,
                                       std::vector<Triple> triples);

  KnowledgeGraph() = default;

  size_t num_entities() const { return num_entities_; }
  size_t num_relations() const { return num_relations_; }
  const std::vector<Triple>& triples() const { return triples_; }

  /// All edges incident to `entity` (both directions).
  std::span<const Edge> Neighbors(EntityId entity) const;

  /// Number of incident edges of `entity`.
  size_t Degree(EntityId entity) const;

  /// Average entity degree following the dataset-table convention of the
  /// paper (Table 3): |triples| / |entities|.
  double AverageDegree() const;

  /// Number of triples each relation participates in.
  std::vector<size_t> RelationFrequencies() const;

  /// Attaches surface names; `names.size()` must equal num_entities().
  Status SetEntityNames(std::vector<std::string> names);

  /// True once SetEntityNames succeeded.
  bool has_entity_names() const { return !entity_names_.empty(); }

  /// Surface name of `entity`; requires has_entity_names().
  const std::string& EntityName(EntityId entity) const;

 private:
  size_t num_entities_ = 0;
  size_t num_relations_ = 0;
  std::vector<Triple> triples_;
  // CSR adjacency.
  std::vector<size_t> adj_offsets_;
  std::vector<Edge> adj_edges_;
  std::vector<std::string> entity_names_;
};

}  // namespace entmatcher

#endif  // ENTMATCHER_KG_GRAPH_H_
