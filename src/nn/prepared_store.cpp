#include "nn/prepared_store.hpp"

#include <atomic>
#include <utility>

#include "common/require.hpp"

namespace pdac::nn {

std::uint64_t next_kv_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

PreparedStore::PreparedStore(PreparedStoreConfig cfg) : cfg_(cfg) {}

std::shared_ptr<const ptc::PreparedOperand> PreparedStore::obtain(
    const WeightHandle& weight, std::uint64_t epoch, const std::vector<std::size_t>& channels,
    const Prepare& prepare) {
  std::shared_ptr<const ptc::PreparedOperand> pb = lookup(weight.id, weight.version, epoch);
  if (pb != nullptr && pb->channels != channels) {
    erase(weight.id);
    pb = nullptr;
  }
  if (pb == nullptr) {
    auto fresh = std::make_shared<ptc::PreparedOperand>(prepare());
    insert(weight.id, weight.version, fresh);
    pb = std::move(fresh);
  }
  return pb;
}

std::shared_ptr<ptc::PreparedOperand> PreparedStore::extend(std::uint64_t id,
                                                            const Append& append,
                                                            const Prepare& prepare) {
  std::shared_ptr<ptc::PreparedOperand> pb = lookup(id);
  if (pb != nullptr) {
    if (append(*pb)) {
      ++stats_.appends;
      updated(id);
      return pb;
    }
    ++stats_.rebuilds;
  }
  pb = std::make_shared<ptc::PreparedOperand>(prepare());
  insert(id, pb);
  return pb;
}

std::shared_ptr<const ptc::PreparedOperand> PreparedStore::lookup(std::uint64_t id,
                                                                  std::uint64_t version,
                                                                  std::uint64_t epoch) {
  const auto it = cfg_.enabled && id != 0 ? index_.find(id) : index_.end();
  if (it != index_.end() && (it->second->version != version || it->second->op->epoch != epoch)) {
    // Stale contents or stale encoder state: never serve it again.
    ++stats_.invalidations;
    drop(it->second);
    ++stats_.misses;
    return nullptr;
  }
  return lookup(id);
}

std::shared_ptr<ptc::PreparedOperand> PreparedStore::lookup(std::uint64_t id) {
  const auto it = cfg_.enabled && id != 0 ? index_.find(id) : index_.end();
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  ++stats_.hits;
  return it->second->op;
}

bool PreparedStore::contains(std::uint64_t id, std::uint64_t version,
                             std::uint64_t epoch) const {
  if (!cfg_.enabled || id == 0) return false;
  const auto it = index_.find(id);
  return it != index_.end() && it->second->version == version && it->second->op->epoch == epoch;
}

void PreparedStore::insert(std::uint64_t id, std::uint64_t version,
                           std::shared_ptr<ptc::PreparedOperand> op) {
  PDAC_REQUIRE(op != nullptr, "PreparedStore: cannot insert a null operand");
  if (!cfg_.enabled || id == 0) return;
  if (const auto it = index_.find(id); it != index_.end()) drop(it->second);  // superseded

  // An operand that exceeds the whole capacity can never survive the
  // eviction sweep — admitting it would flush every resident entry and
  // then drop the newcomer itself.  Refuse it before touching residents.
  const std::size_t bytes = op->bytes();
  if (bytes > cfg_.capacity_bytes) {
    ++stats_.oversized_rejects;
    return;
  }
  lru_.push_front(Entry{id, version, std::move(op), bytes});
  index_[id] = lru_.begin();
  stats_.resident_bytes += bytes;
  stats_.entries = lru_.size();
  evict_over_capacity();
}

void PreparedStore::updated(std::uint64_t id) {
  const auto it = index_.find(id);
  if (it == index_.end()) return;
  Entry& e = *it->second;
  const std::size_t bytes = e.op->bytes();
  stats_.resident_bytes += bytes;
  stats_.resident_bytes -= e.bytes;
  e.bytes = bytes;
  if (bytes > cfg_.capacity_bytes) {
    // Grown past the whole store: drop it like an oversized insert —
    // keeping it would pin the store at one entry forever.
    ++stats_.oversized_rejects;
    drop(it->second);
    return;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  evict_over_capacity();
}

void PreparedStore::erase(std::uint64_t id) {
  const auto it = index_.find(id);
  if (it == index_.end()) return;
  ++stats_.invalidations;
  drop(it->second);
}

void PreparedStore::clear() {
  lru_.clear();
  index_.clear();
  stats_.resident_bytes = 0;
  stats_.entries = 0;
}

void PreparedStore::drop(std::list<Entry>::iterator it) {
  stats_.resident_bytes -= it->bytes;
  index_.erase(it->id);
  lru_.erase(it);
  stats_.entries = lru_.size();
}

void PreparedStore::evict_over_capacity() {
  while (stats_.resident_bytes > cfg_.capacity_bytes && !lru_.empty()) {
    ++stats_.evictions;
    drop(std::prev(lru_.end()));
  }
}

}  // namespace pdac::nn
