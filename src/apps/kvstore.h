// A real in-memory key-value store with GET/SET/DELETE, in the spirit of the
// Memcached / RocksDB servers of §5.3. Used by the host-runtime examples
// (actual hash lookups on actual threads) and by the application tests.
//
// Open addressing with linear probing; SCAN's ordered index lives in
// KvStripedStore. Not thread-safe by itself; callers serialize through the
// runtime's mutex (as the example server does) or shard per core.
#ifndef SRC_APPS_KVSTORE_H_
#define SRC_APPS_KVSTORE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace skyloft {

class KvStore {
 public:
  explicit KvStore(std::size_t initial_buckets = 1024);

  // Inserts or overwrites. Returns true if the key was new.
  bool Set(const std::string& key, const std::string& value);

  std::optional<std::string> Get(const std::string& key) const;

  bool Delete(const std::string& key);

  std::size_t Size() const { return size_; }

 private:
  struct Slot {
    enum class State : std::uint8_t { kEmpty, kFull, kTombstone };
    State state = State::kEmpty;
    std::uint64_t hash = 0;
    std::string key;
    std::string value;
  };

  static std::uint64_t Hash(const std::string& key);
  void Grow();
  // Returns slot index for key: the match if present, else the insert slot.
  std::size_t Probe(const std::string& key, std::uint64_t hash, bool* found) const;

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t tombstones_ = 0;
};

}  // namespace skyloft

#endif  // SRC_APPS_KVSTORE_H_
