// prepared_store.hpp — the one byte-capacity LRU store of prepared GEMM
// operands (DESIGN.md §10, §17).
//
// P-DAC inference has two operand regimes.  Weights are static and
// reused once per token (§II-A1), so their B-side prepare — scale,
// transpose, normalize, encode — is pure amortizable work.  Decode
// attention's K and V operands are dynamic, but they only grow: one row
// per token.  Every caching backend keeps two instances of this store,
// one per regime, each with its own capacity and LRU eviction, and
// routes them through the two residency policies the store owns:
//
//   * obtain (weights) — lookup-or-prepare.  An entry is served only
//     while its content version, encoder epoch and channel packing all
//     match the caller's; otherwise it is dropped and a fresh prepare
//     takes its place.
//   * extend (KV) — append-or-rebuild.  The resident operand is extended
//     in place when the caller's append accepts (ptc::OperandBuilder —
//     bit-identical to a fresh prepare), and rebuilt from the full
//     history, counted, when it refuses.
//
// Keys: `id` names the operand — a Linear's globally unique weight
// stamp, or a KvHandle id (one growing operand per sequence × head ×
// product role; the caller promises rows already handed in never
// change).  id 0 is reserved for uncacheable products.  `version` is the
// weight's content stamp (0 for KV operands); the encoder epoch and
// channel packing travel inside the operand itself.
//
// Counting rules (one set for both regimes):
//   * hits / misses    — lookups served / not served from residency;
//   * invalidations    — entries dropped because they can no longer be
//                        served: a failed freshness check, or erase().
//                        An insert superseding an entry under the same
//                        id (a rebuild) and clear() do not count;
//   * evictions        — entries dropped by capacity pressure;
//   * oversized_rejects — operands larger than the whole capacity,
//                        refused at insert or dropped when an append
//                        grows them past it;
//   * appends / rebuilds — extend() outcomes on a resident entry (plus
//                        record_rebuild() for rebuilds a backend forces).
// Resident bytes are physical (PreparedOperand::bytes()), so appends
// re-account through updated().
//
// Not thread-safe: backends own their stores and are driven from one
// thread (the GEMM engine parallelizes internally).
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ptc/operand_builder.hpp"

namespace pdac::nn {

/// Identity + content-version pair a layer hands to the backend with
/// every cacheable product (Linear::weight_handle()).
struct WeightHandle {
  std::uint64_t id{0};       ///< stable weight identity (0 = uncacheable)
  std::uint64_t version{0};  ///< content stamp, bumped on mutable access
};

/// Which axis of the prepared operand grows as the sequence extends.
enum class KvAxis {
  kCols,  ///< B = kvᵀ: C = a·kvᵀ, new kv rows are new OUTPUT columns (scores)
  kRows,  ///< B = kv:  C = a·kv,  new kv rows extend the REDUCTION axis (context)
};

/// The source form a KV history hands the builder: the scores history
/// IS Bᵀ, the context history is B.
[[nodiscard]] inline ptc::SourceForm source_form(KvAxis axis) {
  return axis == KvAxis::kCols ? ptc::SourceForm::kBt : ptc::SourceForm::kB;
}

/// Identity of one growing KV operand (sequence × head × product role).
/// id 0 is reserved for uncacheable products.
struct KvHandle {
  std::uint64_t id{0};
  KvAxis axis{KvAxis::kCols};
};

/// Process-unique nonzero KvHandle id.
[[nodiscard]] std::uint64_t next_kv_id();

/// Default capacity of a backend's KV store (weights use the config's).
inline constexpr std::size_t kKvStoreCapacityBytes = 64ull << 20;

struct PreparedStoreConfig {
  std::size_t capacity_bytes{256ull << 20};  ///< LRU eviction threshold
  bool enabled{true};  ///< false = every lookup misses, nothing is stored
};

struct PreparedStoreStats {
  std::uint64_t hits{0};
  std::uint64_t misses{0};
  std::uint64_t appends{0};
  std::uint64_t rebuilds{0};
  std::uint64_t evictions{0};
  std::uint64_t invalidations{0};
  std::uint64_t oversized_rejects{0};
  std::uint64_t resident_bytes{0};
  std::uint64_t entries{0};
};

class PreparedStore {
 public:
  using Prepare = std::function<ptc::PreparedOperand()>;
  using Append = std::function<bool(ptc::PreparedOperand&)>;

  explicit PreparedStore(PreparedStoreConfig cfg = {});

  /// Lookup-or-prepare: the resident operand for `weight` if its
  /// version, `epoch` and `channels` all match, else `prepare()`'s
  /// result, inserted.  A packing mismatch under a matching epoch (a
  /// fence applied without an epoch bump) is a hit then an invalidation.
  [[nodiscard]] std::shared_ptr<const ptc::PreparedOperand> obtain(
      const WeightHandle& weight, std::uint64_t epoch, const std::vector<std::size_t>& channels,
      const Prepare& prepare);

  /// Append-or-rebuild: the resident operand for `id`, extended by
  /// `append` (counted), or — when nothing is resident or the append
  /// refuses (a refusal counts a rebuild) — `prepare()`'s result,
  /// inserted.  The freshness rules live in `append`.
  [[nodiscard]] std::shared_ptr<ptc::PreparedOperand> extend(std::uint64_t id,
                                                             const Append& append,
                                                             const Prepare& prepare);

  /// The operand for (id, version) under `epoch`, or nullptr.  A stored
  /// entry whose version or epoch mismatches is erased before the miss is
  /// reported — stale encodings never escape.
  [[nodiscard]] std::shared_ptr<const ptc::PreparedOperand> lookup(std::uint64_t id,
                                                                   std::uint64_t version,
                                                                   std::uint64_t epoch);

  /// The resident operand for `id` (LRU-touched), or nullptr — no
  /// freshness check: extend()'s append validates it.
  [[nodiscard]] std::shared_ptr<ptc::PreparedOperand> lookup(std::uint64_t id);

  /// Pure residency probe for placement affinity (serve::BackendPool):
  /// true iff (id, version) is resident and fresh under `epoch`.  No LRU
  /// reordering, no stats mutation, no stale-entry eviction.
  [[nodiscard]] bool contains(std::uint64_t id, std::uint64_t version,
                              std::uint64_t epoch) const;

  /// Store an operand, superseding any entry under `id`, then evicting
  /// LRU entries over the byte capacity.  An operand larger than the
  /// whole capacity is refused up front (counted); other residents are
  /// left untouched.  id 0 is ignored.
  void insert(std::uint64_t id, std::uint64_t version, std::shared_ptr<ptc::PreparedOperand> op);
  void insert(std::uint64_t id, std::shared_ptr<ptc::PreparedOperand> op) {
    insert(id, 0, std::move(op));
  }

  /// Re-account an entry whose operand grew in place; runs the eviction
  /// sweep, and drops the entry outright if it outgrew the capacity.
  void updated(std::uint64_t id);

  /// Drop one entry if present (counted as an invalidation).
  void erase(std::uint64_t id);

  /// Drop everything (stats are kept; resident bytes/entries reset).
  void clear();

  /// Count a rebuild the caller forced outside extend().
  void record_rebuild() { ++stats_.rebuilds; }

  [[nodiscard]] const PreparedStoreStats& stats() const { return stats_; }
  [[nodiscard]] const PreparedStoreConfig& config() const { return cfg_; }

 private:
  struct Entry {
    std::uint64_t id;
    std::uint64_t version;
    std::shared_ptr<ptc::PreparedOperand> op;
    std::size_t bytes;
  };

  void drop(std::list<Entry>::iterator it);
  void evict_over_capacity();

  PreparedStoreConfig cfg_;
  PreparedStoreStats stats_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
};

// The two regimes' historical names.
using OperandCache = PreparedStore;
using KvPreparedCache = PreparedStore;
using OperandCacheStats = PreparedStoreStats;
using KvPreparedCacheStats = PreparedStoreStats;

}  // namespace pdac::nn
