#ifndef ENTMATCHER_KG_IO_H_
#define ENTMATCHER_KG_IO_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "kg/alignment.h"
#include "kg/graph.h"

namespace entmatcher {

/// Writes triples as TSV lines "subject\tpredicate\tobject" (numeric ids),
/// the interchange format of OpenEA-style toolkits.
Status WriteTriplesTsv(const KnowledgeGraph& graph, const std::string& path);

/// Reads TSV triples; entity/relation counts are inferred as max id + 1.
/// kIoError naming path:line for a malformed line or an entity id at or
/// above kMaxEntities.
Result<KnowledgeGraph> ReadTriplesTsv(const std::string& path);

/// Writes alignment links as TSV lines "source\ttarget".
Status WriteLinksTsv(const AlignmentSet& links, const std::string& path);

/// Reads TSV alignment links, refusing them like ReadTriplesTsv.
Result<AlignmentSet> ReadLinksTsv(const std::string& path);

/// Writes entity surface names, one per line, indexed by entity id.
Status WriteEntityNames(const KnowledgeGraph& graph, const std::string& path);

/// Reads entity surface names (one per line).
Result<std::vector<std::string>> ReadEntityNames(const std::string& path);

}  // namespace entmatcher

#endif  // ENTMATCHER_KG_IO_H_
