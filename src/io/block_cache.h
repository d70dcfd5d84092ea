#ifndef PHOTON_IO_BLOCK_CACHE_H_
#define PHOTON_IO_BLOCK_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "io/single_flight.h"
#include "memory/memory_manager.h"

namespace photon {
namespace io {

/// Block id meaning "the whole object" (as opposed to one row group /
/// byte range of it).
inline constexpr int32_t kWholeObject = -1;

/// Sharded, thread-safe LRU cache over immutable byte blocks, standing in
/// for Photon's NVMe SSD cache of hot Lakehouse data (§2 of the paper:
/// "data ... is cached transparently on local NVMe SSDs"). Entries are
/// keyed by (object key, block id) where the block id is a row-group
/// index or kWholeObject; values are shared immutable byte strings, so a
/// reader holding a block survives its eviction.
///
/// Memory accounting: the cache is a MemoryConsumer. Every cached byte is
/// reserved through the (optional) MemoryManager, so cache pressure and
/// query pressure compete in the same unified pool as §5.3's operators —
/// when a join or sort needs memory, the manager may ask the cache to
/// Spill(), which evicts cold blocks and returns their reservation.
/// Without a manager the cache still enforces its own capacity.
///
/// Eviction is LRU per shard (capacity split evenly across shards, like
/// a striped NVMe cache). Pinned entries are never evicted.
class BlockCache : public MemoryConsumer {
 public:
  struct Options {
    int64_t capacity_bytes = 64LL * 1024 * 1024;
    int num_shards = 8;
    /// Optional unified memory manager to charge cached bytes against.
    MemoryManager* memory_manager = nullptr;
  };

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t inserts = 0;
    int64_t evictions = 0;
    int64_t bytes_cached = 0;
    int64_t bytes_evicted = 0;
    /// Inserts dropped because memory could not be reserved (or the block
    /// is larger than a whole shard).
    int64_t rejected = 0;
  };

  BlockCache();
  explicit BlockCache(Options options);
  ~BlockCache() override;

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// Returns the block and marks it most-recently-used; nullptr on miss.
  std::shared_ptr<const std::string> Lookup(const std::string& key,
                                            int32_t block = kWholeObject);

  /// Inserts (or refreshes) a block. May evict LRU entries to make room;
  /// silently declines when memory cannot be reserved — callers must not
  /// rely on a subsequent Lookup hitting.
  void Insert(const std::string& key, int32_t block,
              std::shared_ptr<const std::string> data);

  /// Pins an entry so eviction skips it (e.g. the row group being decoded).
  /// Returns false when the entry is not cached. Pins nest.
  bool Pin(const std::string& key, int32_t block = kWholeObject);
  void Unpin(const std::string& key, int32_t block = kWholeObject);

  /// Drops all entries, returning reserved memory.
  void Clear();

  /// MemoryConsumer: evicts cold blocks until `requested` bytes are freed
  /// (or only pinned entries remain). Called by the MemoryManager when
  /// other consumers need memory.
  int64_t Spill(int64_t requested) override;

  Stats stats() const;
  int64_t capacity_bytes() const { return options_.capacity_bytes; }

  /// Entries currently pinned (pin_count > 0), across all shards. A
  /// leak-check hook: after every session touching this cache has
  /// finished — successfully or cancelled — this must be zero.
  int64_t pinned_entries() const;

  /// Shared load-deduplication table: every CachingStore reading through
  /// this cache coalesces concurrent misses on the same key to one load.
  SingleFlight* flights() { return &flights_; }

 private:
  struct Entry {
    std::string map_key;
    std::shared_ptr<const std::string> data;
    int64_t charge = 0;
    int pin_count = 0;
  };
  struct Shard {
    std::mutex mu;
    /// front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    int64_t bytes = 0;
  };

  static std::string MapKey(const std::string& key, int32_t block);
  Shard& ShardFor(const std::string& map_key);
  /// Evicts LRU unpinned entries from `shard` until its size is at most
  /// `target_bytes`; returns bytes freed. Caller must hold shard.mu.
  int64_t EvictLocked(Shard* shard, int64_t target_bytes);

  Options options_;
  SingleFlight flights_;
  int64_t shard_capacity_;
  std::unique_ptr<Shard[]> shards_;
  std::optional<ScopedConsumerRegistration> registration_;

  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> inserts_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> bytes_cached_{0};
  std::atomic<int64_t> bytes_evicted_{0};
  std::atomic<int64_t> rejected_{0};
};

}  // namespace io
}  // namespace photon

#endif  // PHOTON_IO_BLOCK_CACHE_H_
