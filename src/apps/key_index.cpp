#include "src/apps/key_index.h"

#include <algorithm>
#include <cstring>
#include <new>

namespace skyloft {

namespace {

// Big-endian first 8 bytes of `s`, zero-padded: a < b on prefixes implies
// a < b on the keys, so only equal prefixes need the keys compared.
std::uint64_t Prefix(std::string_view s) {
  std::uint64_t p = 0;
  for (std::size_t i = 0; i < 8; i++) {
    p = (p << 8) | (i < s.size() ? static_cast<unsigned char>(s[i]) : 0u);
  }
  return p;
}

}  // namespace

// Header, then `cap` bytes: key bytes ascending from the front (`used` of
// them), and `count` u16 key start offsets ending at the back. Key i spans
// [Offset(i), Offset(i + 1)), the last one [Offset(count - 1), used). A shared
// leaf's cap is kCap, so its offsets fit 16 bits; a leaf holding one longer
// key is sized to it and its only offset is 0.
struct KeyIndex::Leaf {
  static constexpr std::size_t kCap = kLeafBytes - 12;

  std::uint32_t cap;
  std::uint32_t count;
  std::uint32_t used;

  char* bytes() { return reinterpret_cast<char*>(this + 1); }
  const char* bytes() const { return reinterpret_cast<const char*>(this + 1); }
  std::uint16_t* starts() { return reinterpret_cast<std::uint16_t*>(bytes() + cap) - count; }
  const std::uint16_t* starts() const {
    return reinterpret_cast<const std::uint16_t*>(bytes() + cap) - count;
  }
  std::uint32_t Offset(std::uint32_t i) const { return i < count ? starts()[i] : used; }
  std::string_view Key(std::uint32_t i) const {
    return {bytes() + Offset(i), Offset(i + 1) - Offset(i)};
  }
  std::size_t Free() const { return cap - used - 2 * count; }

  // First position whose key is >= `key`; *found if that key equals it.
  std::uint32_t LowerBound(std::string_view key, bool* found) const {
    std::uint32_t lo = 0;
    std::uint32_t hi = count;
    while (lo < hi) {
      const std::uint32_t mid = (lo + hi) / 2;
      if (Key(mid) < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    *found = lo < count && Key(lo) == key;
    return lo;
  }

  // Needs Free() >= key.size() + 2.
  void InsertAt(std::uint32_t pos, std::string_view key) {
    const std::uint32_t len = static_cast<std::uint32_t>(key.size());
    const std::uint32_t start = Offset(pos);
    std::memmove(bytes() + start + len, bytes() + start, used - start);
    std::copy(key.begin(), key.end(), bytes() + start);
    used += len;
    std::uint16_t* old_starts = starts();
    std::memmove(old_starts - 1, old_starts, pos * sizeof(std::uint16_t));
    count++;
    std::uint16_t* s = starts();
    s[pos] = static_cast<std::uint16_t>(start);
    for (std::uint32_t i = pos + 1; i < count; i++) {
      s[i] = static_cast<std::uint16_t>(s[i] + len);
    }
  }

  // Moves keys [c, count) into a new shared leaf and returns it.
  Leaf* CutTail(std::uint32_t c) {
    Leaf* tail = New(0);
    const std::uint32_t from = Offset(c);
    tail->used = used - from;
    std::memcpy(tail->bytes(), bytes() + from, tail->used);
    tail->count = count - c;
    for (std::uint32_t i = 0; i < tail->count; i++) {
      tail->starts()[i] = static_cast<std::uint16_t>(starts()[c + i] - from);
    }
    used = from;
    std::memmove(starts() + (count - c), starts(), c * sizeof(std::uint16_t));
    count = c;
    return tail;
  }

  // An empty leaf: a shared one, or one sized to `need` bytes if that is
  // more (a key that no shared leaf can hold).
  static Leaf* New(std::size_t need) {
    static_assert(sizeof(Leaf) + kCap == kLeafBytes);
    const std::size_t cap = std::max(kCap, (need + 1) & ~std::size_t{1});
    return new (::operator new(sizeof(Leaf) + cap)) Leaf{static_cast<std::uint32_t>(cap), 0, 0};
  }
};

KeyIndex::~KeyIndex() {
  for (const DirEntry& e : dir_) {
    ::operator delete(e.leaf);
  }
}

std::string_view KeyIndex::Iterator::operator*() const {
  return index_->dir_[leaf_].leaf->Key(slot_);
}

KeyIndex::Iterator& KeyIndex::Iterator::operator++() {
  if (++slot_ == index_->dir_[leaf_].leaf->count) {
    leaf_++;
    slot_ = 0;
  }
  return *this;
}

std::size_t KeyIndex::LeafFor(std::string_view key) const {
  // dir_[0] takes every key below dir_[1]'s first key, so it is never probed.
  const std::uint64_t prefix = Prefix(key);
  const auto after = std::upper_bound(
      dir_.begin() + 1, dir_.end(), key, [prefix](std::string_view k, const DirEntry& e) {
        return e.prefix != prefix ? prefix < e.prefix : k < e.leaf->Key(0);
      });
  return static_cast<std::size_t>(after - dir_.begin()) - 1;
}

KeyIndex::Iterator KeyIndex::Seek(std::string_view key, bool upper) const {
  if (dir_.empty()) {
    return end();
  }
  const std::size_t li = LeafFor(key);
  const Leaf* leaf = dir_[li].leaf;
  bool found = false;
  std::uint32_t pos = leaf->LowerBound(key, &found);
  if (upper && found) {
    pos++;
  }
  if (pos == leaf->count) {
    return {this, li + 1, 0};
  }
  return {this, li, pos};
}

KeyIndex::Iterator KeyIndex::LowerBound(std::string_view key) const { return Seek(key, false); }
KeyIndex::Iterator KeyIndex::UpperBound(std::string_view key) const { return Seek(key, true); }

bool KeyIndex::Insert(std::string_view key) {
  if (dir_.empty()) {
    dir_.push_back({0, Leaf::New(key.size() + 2)});  // empty only until the insert below
  } else if (const Leaf* last = dir_.back().leaf; key > last->Key(last->count - 1)) {
    Append(key);  // no search: `key` goes after every key
    size_++;
    return true;
  }
  const std::size_t li = LeafFor(key);
  Leaf* leaf = dir_[li].leaf;
  bool found = false;
  const std::uint32_t pos = leaf->LowerBound(key, &found);
  if (found) {
    return false;
  }
  if (leaf->Free() >= key.size() + 2) {
    // A new first key (pos 0) only happens in dir_[0], whose prefix is
    // never probed; Split refreshes it before the leaf can move.
    leaf->InsertAt(pos, key);
  } else {
    Split(li, pos, key);
  }
  size_++;
  return true;
}

void KeyIndex::Append(std::string_view key) {
  Leaf* last = dir_.back().leaf;
  const std::size_t need = key.size() + 2;
  if (last->Free() >= need) {
    last->InsertAt(last->count, key);
  } else if (need <= Leaf::kCap) {
    // A half split would leave the last leaf half empty for good once the
    // keys come in ascending order; a fresh leaf keeps every leaf but the
    // last one full.
    Leaf* fresh = Leaf::New(0);
    fresh->InsertAt(0, key);
    dir_.push_back({Prefix(key), fresh});
  } else {
    Split(dir_.size() - 1, last->count, key);
  }
}

void KeyIndex::Split(std::size_t li, std::uint32_t pos, std::string_view key) {
  Leaf* old = dir_[li].leaf;
  const std::uint32_t n = old->count;
  const std::size_t need = key.size() + 2;
  // Bytes keys [0, c) take in a leaf, slots included.
  const auto head = [old](std::uint32_t c) -> std::size_t { return old->Offset(c) + 2 * c; };
  const std::size_t total = head(n) + need;
  // Cut the old keys into [0, cut) and [cut, n), `key` joining the side it
  // sorts into, as near the middle as both sides fit a shared leaf.
  std::uint32_t cut = 0;
  std::size_t best = 0;
  for (std::uint32_t c = 1; c < n; c++) {
    const std::size_t left = head(c) + (pos < c ? need : 0);
    const std::size_t right = total - left;
    const std::size_t skew = left > right ? left - right : right - left;
    if (left <= Leaf::kCap && right <= Leaf::kCap && (cut == 0 || skew < best)) {
      cut = c;
      best = skew;
    }
  }
  DirEntry made[2];
  std::size_t at = li + 1;  // where made[] goes in dir_
  std::size_t made_n = 0;
  if (cut != 0) {
    Leaf* right = old->CutTail(cut);
    if (pos < cut) {
      old->InsertAt(pos, key);
    } else {
      right->InsertAt(pos - cut, key);
    }
    made[made_n++] = {Prefix(right->Key(0)), right};
  } else {
    // `key` cannot share a leaf with either side of `pos`: it gets a leaf of
    // its own between them.
    Leaf* own = Leaf::New(need);
    own->InsertAt(0, key);
    if (pos == 0) {
      at = li;  // only in dir_[0]: `key` sorts before every key
    }
    made[made_n++] = {Prefix(key), own};
    if (pos > 0 && pos < n) {
      Leaf* tail = old->CutTail(pos);
      made[made_n++] = {Prefix(tail->Key(0)), tail};
    }
  }
  // In dir_[0], old may have a new first key, and it may move to dir_[1].
  dir_[li].prefix = Prefix(old->Key(0));
  dir_.insert(dir_.begin() + static_cast<std::ptrdiff_t>(at), made, made + made_n);
}

}  // namespace skyloft
