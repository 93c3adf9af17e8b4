#include "kg/dataset_io.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <unordered_set>

#include "common/string_util.h"
#include "kg/io.h"

namespace entmatcher {

namespace {

Status WriteEntityIdList(const std::vector<EntityId>& ids,
                         const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  for (EntityId e : ids) out << e << '\n';
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

// One entity id per line, each below `num_entities` (blank lines skipped).
Result<std::vector<EntityId>> ReadEntityIdList(const std::string& path,
                                               size_t num_entities) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  std::vector<EntityId> ids;
  std::string line;
  for (size_t line_no = 1; std::getline(in, line); ++line_no) {
    const std::string_view text = StripWhitespace(line);
    if (text.empty()) continue;
    uint64_t value = 0;
    if (!ParseUint64(text, &value) || value >= num_entities) {
      return Status::IoError(path + ":" + std::to_string(line_no) + ": '" +
                             std::string(text) +
                             "' is not an entity id below " +
                             std::to_string(num_entities));
    }
    ids.push_back(static_cast<EntityId>(value));
  }
  return ids;
}

// Entities in the test candidate set that are not endpoints of test links —
// i.e. the injected unmatchables.
std::vector<EntityId> ExtraCandidates(const std::vector<EntityId>& candidates,
                                      const std::vector<EntityId>& linked) {
  std::unordered_set<EntityId> linked_set(linked.begin(), linked.end());
  std::vector<EntityId> extras;
  for (EntityId e : candidates) {
    if (linked_set.find(e) == linked_set.end()) extras.push_back(e);
  }
  return extras;
}

}  // namespace

Status SaveDatasetDir(const KgPairDataset& dataset, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create directory: " + dir);

  const std::filesystem::path base(dir);
  EM_RETURN_NOT_OK(
      WriteTriplesTsv(dataset.source, (base / "rel_triples_1").string()));
  EM_RETURN_NOT_OK(
      WriteTriplesTsv(dataset.target, (base / "rel_triples_2").string()));
  EM_RETURN_NOT_OK(WriteLinksTsv(dataset.gold, (base / "ent_links").string()));
  EM_RETURN_NOT_OK(
      WriteLinksTsv(dataset.split.train, (base / "train_links").string()));
  EM_RETURN_NOT_OK(
      WriteLinksTsv(dataset.split.valid, (base / "valid_links").string()));
  EM_RETURN_NOT_OK(
      WriteLinksTsv(dataset.split.test, (base / "test_links").string()));
  if (dataset.source.has_entity_names()) {
    EM_RETURN_NOT_OK(
        WriteEntityNames(dataset.source, (base / "ent_names_1").string()));
  }
  if (dataset.target.has_entity_names()) {
    EM_RETURN_NOT_OK(
        WriteEntityNames(dataset.target, (base / "ent_names_2").string()));
  }
  const std::vector<EntityId> extra_src = ExtraCandidates(
      dataset.test_source_entities, dataset.split.test.SourceEntities());
  const std::vector<EntityId> extra_tgt = ExtraCandidates(
      dataset.test_target_entities, dataset.split.test.TargetEntities());
  if (!extra_src.empty()) {
    EM_RETURN_NOT_OK(
        WriteEntityIdList(extra_src, (base / "unmatchable_src").string()));
  }
  if (!extra_tgt.empty()) {
    EM_RETURN_NOT_OK(
        WriteEntityIdList(extra_tgt, (base / "unmatchable_tgt").string()));
  }
  return Status::OK();
}

Result<KgPairDataset> LoadDatasetDir(const std::string& dir) {
  const std::filesystem::path base(dir);
  if (!std::filesystem::is_directory(base)) {
    return Status::NotFound("dataset directory does not exist: " + dir);
  }

  const std::string source_triples = (base / "rel_triples_1").string();
  const std::string target_triples = (base / "rel_triples_2").string();
  EM_ASSIGN_OR_RETURN(KnowledgeGraph source, ReadTriplesTsv(source_triples));
  EM_ASSIGN_OR_RETURN(KnowledgeGraph target, ReadTriplesTsv(target_triples));
  // Compared by division: the product of two 32-bit counts can wrap. A side
  // with no relations counts as one, so it cannot wave the other through.
  const size_t src_relations = source.num_relations();
  const size_t tgt_relations = target.num_relations();
  if (std::max<size_t>(src_relations, 1) >
      kMaxRelationPairs / std::max<size_t>(tgt_relations, 1)) {
    return Status::IoError(
        source_triples + " and " + target_triples + " span " +
        std::to_string(src_relations) + " x " +
        std::to_string(tgt_relations) + " relations, more than the " +
        std::to_string(kMaxRelationPairs) + " relation pairs a dataset may "
        "span");
  }
  EM_ASSIGN_OR_RETURN(AlignmentSet gold,
                      ReadLinksTsv((base / "ent_links").string()));
  AlignmentSplit split;
  EM_ASSIGN_OR_RETURN(split.train,
                      ReadLinksTsv((base / "train_links").string()));
  EM_ASSIGN_OR_RETURN(split.valid,
                      ReadLinksTsv((base / "valid_links").string()));
  EM_ASSIGN_OR_RETURN(split.test, ReadLinksTsv((base / "test_links").string()));

  // The id space may exceed what the triples mention (e.g. isolated link
  // endpoints in hand-assembled datasets): grow the graphs if needed.
  auto max_link_id = [](const AlignmentSet& links, bool source_side) {
    EntityId max_id = 0;
    for (const EntityPair& p : links.pairs()) {
      max_id = std::max(max_id, source_side ? p.source : p.target);
    }
    return max_id;
  };
  const EntityId max_src = max_link_id(gold, true);
  const EntityId max_tgt = max_link_id(gold, false);
  if (max_src >= source.num_entities()) {
    EM_ASSIGN_OR_RETURN(
        source, KnowledgeGraph::Create(max_src + 1, source.num_relations(),
                                       source.triples()));
  }
  if (max_tgt >= target.num_entities()) {
    EM_ASSIGN_OR_RETURN(
        target, KnowledgeGraph::Create(max_tgt + 1, target.num_relations(),
                                       target.triples()));
  }

  // Optional names.
  if (std::filesystem::exists(base / "ent_names_1")) {
    EM_ASSIGN_OR_RETURN(std::vector<std::string> names,
                        ReadEntityNames((base / "ent_names_1").string()));
    EM_RETURN_NOT_OK(source.SetEntityNames(std::move(names)));
  }
  if (std::filesystem::exists(base / "ent_names_2")) {
    EM_ASSIGN_OR_RETURN(std::vector<std::string> names,
                        ReadEntityNames((base / "ent_names_2").string()));
    EM_RETURN_NOT_OK(target.SetEntityNames(std::move(names)));
  }

  KgPairDataset dataset;
  dataset.name = base.filename().string();
  dataset.source = std::move(source);
  dataset.target = std::move(target);
  dataset.gold = std::move(gold);
  dataset.split = std::move(split);

  std::vector<EntityId> extra_src;
  std::vector<EntityId> extra_tgt;
  if (std::filesystem::exists(base / "unmatchable_src")) {
    EM_ASSIGN_OR_RETURN(extra_src,
                        ReadEntityIdList((base / "unmatchable_src").string(),
                                         dataset.source.num_entities()));
  }
  if (std::filesystem::exists(base / "unmatchable_tgt")) {
    EM_ASSIGN_OR_RETURN(extra_tgt,
                        ReadEntityIdList((base / "unmatchable_tgt").string(),
                                         dataset.target.num_entities()));
  }
  PopulateTestCandidates(&dataset, extra_src, extra_tgt);
  return dataset;
}

}  // namespace entmatcher
