// KeyIndex: the ordered set of keys behind the KV server's SCAN (DESIGN.md
// section 10, "The key index layout").
//
// Keys sit packed in sorted leaves of kLeafBytes each: a small header, the
// key bytes back to back in ascending order from the front, and an array of
// 16-bit key start offsets at the back, so a search inside a leaf is a
// binary search over that array. A sorted directory of {first-key prefix,
// leaf} entries picks the leaf; the prefix spares most probes a leaf miss.
// A leaf that cannot take a new key splits in two, and a key too long for a
// shared leaf gets a leaf of its own, so keys of any length fit. The
// directory entries are trivially copyable: a split moves them with one
// memmove, never a string per leaf.
//
// A key greater than every key in the index is appended with no search: it
// goes at the end of the last leaf, or, when that leaf is full, opens a new
// leaf instead of splitting it. Keys inserted in ascending order (the KV
// server's preload) therefore leave every leaf but the last one full.
//
// The index is insert-only: the KV store has no DEL, so there is no Erase.
// A future DEL must add one (and, for the directory, either merge or allow
// empty leaves). Not thread-safe; KvStripedStore guards it with its
// `kv_index` spinlock, and an iterator is valid only while no Insert runs.
#ifndef SRC_APPS_KEY_INDEX_H_
#define SRC_APPS_KEY_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace skyloft {

class KeyIndex {
 public:
  // Size of a shared leaf, header included.
  static constexpr std::size_t kLeafBytes = 4096;

  class Iterator {
   public:
    std::string_view operator*() const;
    Iterator& operator++();
    bool operator==(const Iterator& other) const {
      return leaf_ == other.leaf_ && slot_ == other.slot_;
    }

   private:
    friend class KeyIndex;
    Iterator(const KeyIndex* index, std::size_t leaf, std::uint32_t slot)
        : index_(index), leaf_(leaf), slot_(slot) {}

    const KeyIndex* index_;
    std::size_t leaf_;
    std::uint32_t slot_;
  };

  KeyIndex() = default;
  ~KeyIndex();
  KeyIndex(const KeyIndex&) = delete;
  KeyIndex& operator=(const KeyIndex&) = delete;

  // Adds `key`. Returns false if it was already present.
  bool Insert(std::string_view key);

  // First key >= `key` / first key > `key`.
  Iterator LowerBound(std::string_view key) const;
  Iterator UpperBound(std::string_view key) const;
  Iterator begin() const { return {this, 0, 0}; }
  Iterator end() const { return {this, dir_.size(), 0}; }

  std::size_t size() const { return size_; }
  std::size_t leaves() const { return dir_.size(); }

 private:
  struct Leaf;
  struct DirEntry {
    std::uint64_t prefix;  // first 8 bytes of the leaf's first key, big-endian
    Leaf* leaf;
  };

  // Index of the last leaf whose first key is <= `key`, or 0.
  std::size_t LeafFor(std::string_view key) const;
  // Position of `key`'s lower bound (found = exact match) in dir_[leaf].
  Iterator Seek(std::string_view key, bool upper) const;
  // Adds `key`, greater than every key, after the last leaf's last key.
  void Append(std::string_view key);
  // Replaces dir_[li] by leaves holding its keys plus `key` at `pos`.
  void Split(std::size_t li, std::uint32_t pos, std::string_view key);

  std::vector<DirEntry> dir_;  // leaves owned, in key order, none empty
  std::size_t size_ = 0;
};

}  // namespace skyloft

#endif  // SRC_APPS_KEY_INDEX_H_
