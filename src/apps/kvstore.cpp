#include "src/apps/kvstore.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "src/base/logging.h"

namespace skyloft {

namespace {

// A control byte is kEmpty or a full slot's 7-bit hash tag (high bit
// clear). Probes read a group of 8 control bytes as one word.
constexpr std::uint8_t kEmpty = 0x80;
constexpr std::size_t kGroup = 8;
constexpr std::uint64_t kLsbs = 0x0101010101010101ULL;
constexpr std::uint64_t kMsbs = 0x8080808080808080ULL;
static_assert(std::endian::native == std::endian::little, "group masks index bytes LSB-first");

// One high bit per byte of `group` equal to `tag`. It may also flag the byte
// after a true match (a borrow), which only costs a key compare.
std::uint64_t MatchTag(std::uint64_t group, std::uint8_t tag) {
  const std::uint64_t x = group ^ (kLsbs * tag);
  return (x - kLsbs) & ~x & kMsbs;
}

// kEmpty is the only control byte with bit 7 set.
std::uint64_t MatchEmpty(std::uint64_t group) { return group & kMsbs; }

std::size_t ByteIndex(std::uint64_t mask) {
  return static_cast<std::size_t>(std::countr_zero(mask)) / 8;
}

std::uint8_t TagOf(std::uint64_t hash) { return static_cast<std::uint8_t>(hash & 0x7F); }

// Keys a table of `slots` slots holds at 7/8 load.
std::size_t MaxLoad(std::size_t slots) { return slots / 8 * 7; }

// Table capacities are multiples of 16, at least 16.
std::size_t RoundUp16(std::size_t slots) {
  return std::max<std::size_t>(16, (slots + 15) & ~std::size_t{15});
}

// The smallest capacity whose 7/8 holds `keys`.
std::size_t SlotsFor(std::size_t keys) { return RoundUp16((keys * 8 + 6) / 7); }

}  // namespace

KvStore::KvStore(std::size_t initial_slots) {
  const std::size_t slots = RoundUp16(initial_slots);
  ctrl_.assign(slots + kGroup, kEmpty);
  entries_.resize(slots);
}

std::uint64_t KvStore::Hash(const std::string& key) {
  // FNV-1a, then a splitmix finalizer: Home() reads the high 32 bits and
  // the tag the low 7.
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

// Multiply-shift range reduction: any capacity below 2^32, no mask.
std::size_t KvStore::Home(std::uint64_t hash) const { return ((hash >> 32) * capacity()) >> 32; }

std::uint64_t KvStore::LoadGroup(std::size_t index) const {
  std::uint64_t group;
  std::memcpy(&group, &ctrl_[index], sizeof(group));
  return group;
}

void KvStore::SetCtrl(std::size_t index, std::uint8_t ctrl) {
  ctrl_[index] = ctrl;
  if (index < kGroup) {
    ctrl_[capacity() + index] = ctrl;
  }
}

// Insertion takes the first free slot from a key's home, and no slot between
// a key's home and its slot is ever empty, so the first group holding an
// empty slot ends the search. At most 7/8 of the slots are in use, so one
// exists.
std::size_t KvStore::Find(const std::string& key, std::uint64_t hash) const {
  const std::size_t cap = capacity();
  const std::uint8_t tag = TagOf(hash);
  std::size_t pos = Home(hash);
  // Over half the keys of a full table sit in their home slot; fetching its
  // entry beside the control bytes overlaps what would be two serial misses.
  __builtin_prefetch(&entries_[pos]);
  for (;;) {
    const std::uint64_t group = LoadGroup(pos);
    for (std::uint64_t m = MatchTag(group, tag); m != 0; m &= m - 1) {
      std::size_t index = pos + ByteIndex(m);
      if (index >= cap) {
        index -= cap;
      }
      if (entries_[index].key == key) {
        return index;
      }
    }
    if (MatchEmpty(group) != 0) {
      return cap;
    }
    pos += kGroup;
    if (pos >= cap) {
      pos -= cap;
    }
  }
}

std::size_t KvStore::FindFree(std::uint64_t hash) const {
  const std::size_t cap = capacity();
  std::size_t pos = Home(hash);
  for (;;) {
    const std::uint64_t m = MatchEmpty(LoadGroup(pos));
    if (m != 0) {
      const std::size_t index = pos + ByteIndex(m);
      return index >= cap ? index - cap : index;
    }
    pos += kGroup;
    if (pos >= cap) {
      pos -= cap;
    }
  }
}

void KvStore::Rehash(std::size_t slots) {
  SKYLOFT_CHECK(slots >= SlotsFor(size_) && slots < (std::size_t{1} << 32));
  std::vector<std::uint8_t> old_ctrl = std::move(ctrl_);
  std::vector<Entry> old_entries = std::move(entries_);
  ctrl_.assign(slots + kGroup, kEmpty);
  entries_ = std::vector<Entry>(slots);
  for (std::size_t i = 0; i < old_entries.size(); i++) {
    if (old_ctrl[i] < kEmpty) {
      const std::uint64_t hash = Hash(old_entries[i].key);
      const std::size_t index = FindFree(hash);
      SetCtrl(index, TagOf(hash));
      entries_[index] = std::move(old_entries[i]);
    }
  }
}

void KvStore::Reserve(std::size_t keys) {
  if (SlotsFor(keys) > capacity()) {
    Rehash(SlotsFor(keys));
  }
}

void KvStore::Prefetch(const std::string& key) const {
  const std::size_t home = Home(Hash(key));
  __builtin_prefetch(&ctrl_[home]);
  __builtin_prefetch(&entries_[home]);
}

bool KvStore::Set(const std::string& key, const std::string& value) {
  const std::uint64_t hash = Hash(key);
  std::size_t index = Find(key, hash);
  if (index != capacity()) {
    entries_[index].value = value;
    return false;
  }
  if (size_ + 1 > MaxLoad(capacity())) {
    Rehash(RoundUp16(capacity() * 3 / 2));
  }
  index = FindFree(hash);
  SetCtrl(index, TagOf(hash));
  entries_[index].key = key;
  entries_[index].value = value;
  size_++;
  return true;
}

std::optional<std::string> KvStore::Get(const std::string& key) const {
  const std::size_t index = Find(key, Hash(key));
  if (index == capacity()) {
    return std::nullopt;
  }
  return entries_[index].value;
}

}  // namespace skyloft
