#include "kg/io.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <fstream>

#include "common/string_util.h"

namespace entmatcher {

namespace {

// Reads the non-blank lines of `path` as rows of kWidth tab-separated
// 32-bit ids and hands each row to `take`. The columns `entity` flags hold
// entity ids, refused at or above kMaxEntities. Every refusal is kIoError
// naming path:line.
template <size_t kWidth, typename Take>
Status ReadIdRows(const std::string& path,
                  const std::array<bool, kWidth>& entity, Take take) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  std::string line;
  for (size_t line_no = 1; std::getline(in, line); ++line_no) {
    const std::string_view stripped = StripWhitespace(line);
    if (stripped.empty()) continue;
    const std::string where = path + ":" + std::to_string(line_no) + ": ";
    const std::vector<std::string_view> fields = SplitString(stripped, '\t');
    if (fields.size() != kWidth) {
      return Status::IoError(where + "expected " + std::to_string(kWidth) +
                             " tab-separated fields in: " + line);
    }
    std::array<uint32_t, kWidth> ids;
    for (size_t i = 0; i < kWidth; ++i) {
      const char* end = fields[i].data() + fields[i].size();
      const auto parsed = std::from_chars(fields[i].data(), end, ids[i]);
      if (parsed.ec != std::errc() || parsed.ptr != end) {
        return Status::IoError(where + "failed to parse integer field: '" +
                               std::string(fields[i]) + "'");
      }
      if (entity[i] && ids[i] >= kMaxEntities) {
        return Status::IoError(where + "entity id " + std::to_string(ids[i]) +
                               " is not below " +
                               std::to_string(kMaxEntities));
      }
    }
    take(ids);
  }
  return Status::OK();
}

}  // namespace

Status WriteTriplesTsv(const KnowledgeGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  for (const Triple& t : graph.triples()) {
    out << t.subject << '\t' << t.predicate << '\t' << t.object << '\n';
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<KnowledgeGraph> ReadTriplesTsv(const std::string& path) {
  std::vector<Triple> triples;
  uint32_t max_entity = 0;
  uint32_t max_relation = 0;
  EM_RETURN_NOT_OK(ReadIdRows<3>(
      path, {true, false, true}, [&](const std::array<uint32_t, 3>& spo) {
        triples.push_back(Triple{spo[0], spo[1], spo[2]});
        max_entity = std::max({max_entity, spo[0], spo[2]});
        max_relation = std::max(max_relation, spo[1]);
      }));
  const size_t num_entities = triples.empty() ? 0 : max_entity + 1;
  const size_t num_relations = triples.empty() ? 0 : max_relation + 1;
  return KnowledgeGraph::Create(num_entities, num_relations, std::move(triples));
}

Status WriteLinksTsv(const AlignmentSet& links, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  for (const EntityPair& p : links.pairs()) {
    out << p.source << '\t' << p.target << '\n';
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<AlignmentSet> ReadLinksTsv(const std::string& path) {
  std::vector<EntityPair> pairs;
  EM_RETURN_NOT_OK(ReadIdRows<2>(
      path, {true, true}, [&pairs](const std::array<uint32_t, 2>& link) {
        pairs.push_back(EntityPair{link[0], link[1]});
      }));
  return AlignmentSet(std::move(pairs));
}

Status WriteEntityNames(const KnowledgeGraph& graph, const std::string& path) {
  if (!graph.has_entity_names()) {
    return Status::FailedPrecondition("graph has no entity names");
  }
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  for (size_t e = 0; e < graph.num_entities(); ++e) {
    out << graph.EntityName(static_cast<EntityId>(e)) << '\n';
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<std::vector<std::string>> ReadEntityNames(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  std::vector<std::string> names;
  std::string line;
  while (std::getline(in, line)) names.push_back(line);
  return names;
}

}  // namespace entmatcher
