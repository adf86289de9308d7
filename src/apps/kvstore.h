// A real in-memory key-value store with GET and SET (insert or overwrite),
// in the spirit of the Memcached / RocksDB servers of §5.3; like the
// server's protocol, it never deletes a key. Used by the host-runtime
// examples (actual hash lookups on actual threads) and by the application
// tests.
//
// Layout (DESIGN.md §10): one control byte per slot (empty, or a full
// slot's 7-bit hash tag) beside a parallel array of cache-line entries.
// A lookup scans the control bytes linearly, 8 at a time, and reads an entry
// only on a tag match, so a hit touches one entry line. The table fills to
// 7/8 of its capacity (a multiple of 16) and grows by 1.5x.
//
// SCAN's ordered index is KvStripedStore's KeyIndex (src/apps/key_index.h),
// not part of this table. Not thread-safe by itself; KvStripedStore guards
// each instance with its stripe's spinlock.
#ifndef SRC_APPS_KVSTORE_H_
#define SRC_APPS_KVSTORE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/base/compiler.h"

namespace skyloft {

class KvStore {
 public:
  // `initial_slots` is rounded up to a multiple of 16 (at least 16).
  explicit KvStore(std::size_t initial_slots = 1024);

  // Inserts or overwrites. Returns true if the key was new.
  bool Set(const std::string& key, const std::string& value);

  std::optional<std::string> Get(const std::string& key) const;

  // Sizes the table so that `keys` live keys fit without a rehash.
  void Reserve(std::size_t keys);

  // Starts loading the lines a lookup of `key` reads first, its home control
  // group and entry, so that a caller holding several keys overlaps their
  // misses instead of waiting on each in turn.
  void Prefetch(const std::string& key) const;

  std::size_t Size() const { return size_; }

 private:
  struct alignas(kCacheLineSize) Entry {
    std::string key;
    std::string value;
  };

  static std::uint64_t Hash(const std::string& key);
  std::size_t Home(std::uint64_t hash) const;
  // Index of `key`'s slot, or capacity() if absent.
  std::size_t Find(const std::string& key, std::uint64_t hash) const;
  // First empty slot on `hash`'s probe path.
  std::size_t FindFree(std::uint64_t hash) const;
  std::uint64_t LoadGroup(std::size_t index) const;
  void SetCtrl(std::size_t index, std::uint8_t ctrl);
  void Rehash(std::size_t capacity);
  std::size_t capacity() const { return entries_.size(); }

  // capacity() control bytes, then a copy of the first 8 so that a group
  // load starting at any slot reads 8 bytes without a wrap check.
  std::vector<std::uint8_t> ctrl_;
  std::vector<Entry> entries_;
  std::size_t size_ = 0;
};

}  // namespace skyloft

#endif  // SRC_APPS_KVSTORE_H_
