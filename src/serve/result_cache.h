#ifndef ENTMATCHER_SERVE_RESULT_CACHE_H_
#define ENTMATCHER_SERVE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "matching/types.h"

namespace entmatcher {

/// Cross-request LRU cache of finished serving answers.
///
/// Serving workloads repeat themselves: dashboards re-issue the same preset,
/// clients retry, monitoring replays canary queries. Micro-batching already
/// collapses *simultaneous* duplicates into one scores pass; the result
/// cache collapses duplicates *across* batches — a hit skips the pipeline
/// entirely and answers from the stored decision.
///
/// Correctness rests on the key, which the server builds from
///   (pair name, snapshot version, ScoreSignature, matcher, kind, topk,
///    row range):
/// everything that determines the answer bytes. The snapshot version makes
/// staleness structurally impossible — a hot swap bumps the version, so old
/// entries can never answer queries against new embeddings — and
/// InvalidatePair additionally drops the dead weight eagerly at swap time.
/// Degraded answers are never inserted (their options were rewritten under
/// load; the same request at a calm moment deserves the dense answer).
///
/// Byte-budgeted LRU: each entry is charged for its key and payload; an
/// insert that would exceed the budget evicts from the cold tail first. An
/// entry larger than the whole budget is simply not cached.
///
/// Thread-safe: workers look up and insert concurrently; one internal mutex
/// serializes them (the guarded work is pointer shuffling, orders of
/// magnitude below a scores pass).
class ResultCache {
 public:
  /// The answer payload of one finished query (exactly one field is
  /// meaningful, per the request kind folded into the key): the bytes a
  /// fresh run returns for the keyed row range, nothing more.
  struct Entry {
    Assignment assignment;
    std::vector<uint32_t> topk;
    /// Parallel to topk when the keyed request asked for scores.
    std::vector<float> topk_scores;
  };

  /// `budget_bytes` = 0 disables the cache (every Lookup misses, Insert is a
  /// no-op) — the server's default until --cache-bytes opts in.
  explicit ResultCache(size_t budget_bytes);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Copies the entry for `key` into `out` and promotes it to
  /// most-recently-used. False on miss.
  bool Lookup(const std::string& key, Entry* out);

  /// Inserts (or refreshes) `key`, evicting least-recently-used entries
  /// until the budget holds. Oversized entries are dropped silently.
  void Insert(const std::string& key, Entry entry);

  /// Drops every entry whose key belongs to `pair` (keys are prefixed with
  /// the pair name; see MakeKey). Returns how many entries were dropped.
  /// Called on snapshot publish — the version in the key already guarantees
  /// correctness, this reclaims the bytes.
  size_t InvalidatePair(const std::string& pair);

  /// Key prefix identifying `pair` (pair name + an unambiguous separator);
  /// the server's key builder starts from this so InvalidatePair can match
  /// by prefix.
  static std::string PairPrefix(const std::string& pair);

  size_t bytes() const;
  size_t entries() const;
  uint64_t evictions() const;
  size_t budget_bytes() const { return budget_bytes_; }
  bool enabled() const { return budget_bytes_ > 0; }

 private:
  struct Node {
    std::string key;
    Entry entry;
    size_t bytes = 0;
  };

  static size_t EntryBytes(const std::string& key, const Entry& entry);

  /// Unlink + erase the LRU tail (caller holds mu_).
  void EvictTailLocked();

  const size_t budget_bytes_;

  mutable std::mutex mu_;
  std::list<Node> lru_;  // front = hottest
  std::unordered_map<std::string, std::list<Node>::iterator> index_;
  size_t bytes_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace entmatcher

#endif  // ENTMATCHER_SERVE_RESULT_CACHE_H_
