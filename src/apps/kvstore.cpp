#include "src/apps/kvstore.h"

#include "src/base/logging.h"

namespace skyloft {

KvStore::KvStore(std::size_t initial_buckets) {
  std::size_t buckets = 16;
  while (buckets < initial_buckets) {
    buckets <<= 1;
  }
  slots_.resize(buckets);
}

std::uint64_t KvStore::Hash(const std::string& key) {
  // FNV-1a, then a splitmix finalizer for better high bits.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : key) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  return h;
}

std::size_t KvStore::Probe(const std::string& key, std::uint64_t hash, bool* found) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t index = hash & mask;
  std::size_t first_tombstone = slots_.size();
  for (std::size_t step = 0; step < slots_.size(); step++) {
    const Slot& slot = slots_[index];
    if (slot.state == Slot::State::kEmpty) {
      *found = false;
      return first_tombstone != slots_.size() ? first_tombstone : index;
    }
    if (slot.state == Slot::State::kTombstone) {
      if (first_tombstone == slots_.size()) {
        first_tombstone = index;
      }
    } else if (slot.hash == hash && slot.key == key) {
      *found = true;
      return index;
    }
    index = (index + 1) & mask;
  }
  *found = false;
  SKYLOFT_CHECK(first_tombstone != slots_.size()) << "hash table full";
  return first_tombstone;
}

void KvStore::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.clear();
  slots_.resize(old.size() * 2);
  size_ = 0;
  tombstones_ = 0;
  for (Slot& slot : old) {
    if (slot.state == Slot::State::kFull) {
      bool found = false;
      const std::size_t index = Probe(slot.key, slot.hash, &found);
      SKYLOFT_DCHECK(!found);
      slots_[index] = std::move(slot);
      size_++;
    }
  }
}

bool KvStore::Set(const std::string& key, const std::string& value) {
  if ((size_ + tombstones_ + 1) * 4 > slots_.size() * 3) {
    Grow();
  }
  const std::uint64_t hash = Hash(key);
  bool found = false;
  const std::size_t index = Probe(key, hash, &found);
  Slot& slot = slots_[index];
  if (found) {
    slot.value = value;
    return false;
  }
  if (slot.state == Slot::State::kTombstone) {
    tombstones_--;
  }
  slot.state = Slot::State::kFull;
  slot.hash = hash;
  slot.key = key;
  slot.value = value;
  size_++;
  return true;
}

std::optional<std::string> KvStore::Get(const std::string& key) const {
  bool found = false;
  const std::size_t index = Probe(key, Hash(key), &found);
  if (!found) {
    return std::nullopt;
  }
  return slots_[index].value;
}

bool KvStore::Delete(const std::string& key) {
  bool found = false;
  const std::size_t index = Probe(key, Hash(key), &found);
  if (!found) {
    return false;
  }
  Slot& slot = slots_[index];
  slot.state = Slot::State::kTombstone;
  slot.key.clear();
  slot.value.clear();
  size_--;
  tombstones_++;
  return true;
}

}  // namespace skyloft
