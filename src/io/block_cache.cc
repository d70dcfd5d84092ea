#include "io/block_cache.h"

#include <algorithm>

#include "common/hash.h"
#include "common/macros.h"
#include "obs/trace.h"

namespace photon {
namespace io {
namespace {

/// Fixed bookkeeping overhead charged per entry on top of the payload
/// (map node, list node, key string).
constexpr int64_t kEntryOverhead = 64;

}  // namespace

BlockCache::BlockCache() : BlockCache(Options()) {}

BlockCache::BlockCache(Options options)
    : MemoryConsumer("io.BlockCache"), options_(options) {
  // Spill() (eviction) is internally thread-safe, so the cache stays a
  // valid spill victim for any task group's reservation.
  set_spill_safe(true);
  PHOTON_CHECK(options_.num_shards > 0);
  shard_capacity_ =
      std::max<int64_t>(1, options_.capacity_bytes / options_.num_shards);
  shards_ = std::make_unique<Shard[]>(options_.num_shards);
  if (options_.memory_manager != nullptr) {
    registration_.emplace(options_.memory_manager, this);
  }
}

BlockCache::~BlockCache() {
  Clear();
  // registration_ (if any) releases the (now zero) reservation and
  // unregisters on destruction.
}

std::string BlockCache::MapKey(const std::string& key, int32_t block) {
  std::string out = key;
  out.push_back('\0');
  out.append(std::to_string(block));
  return out;
}

BlockCache::Shard& BlockCache::ShardFor(const std::string& map_key) {
  uint64_t h = HashBytes(map_key.data(), map_key.size());
  return shards_[h % static_cast<uint64_t>(options_.num_shards)];
}

std::shared_ptr<const std::string> BlockCache::Lookup(const std::string& key,
                                                      int32_t block) {
  std::string mk = MapKey(key, block);
  Shard& shard = ShardFor(mk);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(mk);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->data;
}

int64_t BlockCache::EvictLocked(Shard* shard, int64_t target_bytes) {
  int64_t freed = 0;
  auto it = shard->lru.end();
  while (shard->bytes > target_bytes && it != shard->lru.begin()) {
    --it;
    if (it->pin_count > 0) continue;  // never evict pinned blocks
    freed += it->charge;
    shard->bytes -= it->charge;
    bytes_cached_.fetch_sub(it->charge, std::memory_order_relaxed);
    bytes_evicted_.fetch_add(it->charge, std::memory_order_relaxed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    shard->index.erase(it->map_key);
    it = shard->lru.erase(it);
  }
  return freed;
}

void BlockCache::Insert(const std::string& key, int32_t block,
                        std::shared_ptr<const std::string> data) {
  PHOTON_CHECK(data != nullptr);
  std::string mk = MapKey(key, block);
  int64_t charge =
      static_cast<int64_t>(data->size() + mk.size()) + kEntryOverhead;
  if (charge > shard_capacity_) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Shard& shard = ShardFor(mk);

  // Phase 1: make room inside the shard. The shard lock must not be held
  // while talking to the MemoryManager — a Reserve() below may recursively
  // Spill() this very cache, which takes shard locks.
  int64_t freed;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.index.count(mk) > 0) return;  // already cached (raced insert)
    freed = EvictLocked(&shard, shard_capacity_ - charge);
  }
  if (options_.memory_manager != nullptr) {
    if (freed > 0) options_.memory_manager->Release(this, freed);
    if (!options_.memory_manager->Reserve(this, charge).ok()) {
      // The unified pool is exhausted even after spilling: queries win,
      // the block stays uncached.
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }

  // Phase 2: publish. A concurrent insert of the same key may have won the
  // race; return the reservation instead of double-charging.
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.index.count(mk) == 0) {
      shard.lru.push_front(Entry{mk, std::move(data), charge, 0});
      shard.index[mk] = shard.lru.begin();
      shard.bytes += charge;
      bytes_cached_.fetch_add(charge, std::memory_order_relaxed);
      inserts_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  if (options_.memory_manager != nullptr) {
    options_.memory_manager->Release(this, charge);
  }
}

bool BlockCache::Pin(const std::string& key, int32_t block) {
  std::string mk = MapKey(key, block);
  Shard& shard = ShardFor(mk);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(mk);
  if (it == shard.index.end()) return false;
  it->second->pin_count++;
  return true;
}

int64_t BlockCache::pinned_entries() const {
  int64_t pinned = 0;
  for (int s = 0; s < options_.num_shards; s++) {
    std::lock_guard<std::mutex> lock(shards_[s].mu);
    for (const Entry& e : shards_[s].lru) {
      if (e.pin_count > 0) pinned++;
    }
  }
  return pinned;
}

void BlockCache::Unpin(const std::string& key, int32_t block) {
  std::string mk = MapKey(key, block);
  Shard& shard = ShardFor(mk);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(mk);
  if (it == shard.index.end()) return;
  PHOTON_CHECK(it->second->pin_count > 0);
  it->second->pin_count--;
}

void BlockCache::Clear() {
  int64_t freed = 0;
  for (int s = 0; s < options_.num_shards; s++) {
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    freed += shard.bytes;
    bytes_cached_.fetch_sub(shard.bytes, std::memory_order_relaxed);
    shard.bytes = 0;
    shard.lru.clear();
    shard.index.clear();
  }
  if (options_.memory_manager != nullptr && freed > 0) {
    options_.memory_manager->Release(this, freed);
  }
}

int64_t BlockCache::Spill(int64_t requested) {
  // Called by the MemoryManager (with its lock dropped) on behalf of some
  // memory-hungry consumer: shed cold blocks, coldest shards' tails first.
  obs::TraceSpan span("cache.spill", requested);
  int64_t freed = 0;
  for (int s = 0; s < options_.num_shards && freed < requested; s++) {
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    freed += EvictLocked(&shard,
                         std::max<int64_t>(0, shard.bytes -
                                                  (requested - freed)));
  }
  if (options_.memory_manager != nullptr && freed > 0) {
    options_.memory_manager->Release(this, freed);
  }
  return freed;
}

BlockCache::Stats BlockCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.bytes_cached = bytes_cached_.load(std::memory_order_relaxed);
  s.bytes_evicted = bytes_evicted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace io
}  // namespace photon
