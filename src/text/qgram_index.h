#ifndef KJOIN_TEXT_QGRAM_INDEX_H_
#define KJOIN_TEXT_QGRAM_INDEX_H_

// A q-gram inverted index for approximate string lookup.
//
// Used by the entity matcher (mapping typo-carrying tokens onto
// knowledge-base labels, paper §2.1.1) and by the FastJoin baseline. Uses
// padded q-grams: the string is framed with q−1 sentinel characters on
// each side, giving |s| + q − 1 grams, so the classic count filter
//   ED(x, y) <= e  =>  |grams(x) ∩ grams(y)| >= max(|x|,|y|) + q − 1 − q·e
// holds for strings of any length >= 1 (∩ is the multiset intersection:
// a gram counts min(multiplicity in x, multiplicity in y) times).
//
// Grams are packed into integer codes (q <= 8 bytes per code) and the
// postings are CSR arrays sorted by code. A lookup counts shared grams
// ScanCount-style into a dense per-string counter plus a touched list,
// both thread-local scratch reused across calls, so the hot path does no
// hashing and no allocation beyond its result. The index is immutable
// after construction; every method is safe to call concurrently.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace kjoin {

class QGramIndex {
 public:
  // Longest supported q: one gram must fit one 64-bit code.
  static constexpr int kMaxQ = 8;

  // Indexes `strings` (ids are positions in the vector). 1 <= q <= kMaxQ.
  QGramIndex(std::vector<std::string> strings, int q = 2);

  int q() const { return q_; }
  int64_t num_strings() const { return static_cast<int64_t>(strings_.size()); }
  const std::string& string_at(int32_t id) const { return strings_[id]; }

  // Ids of indexed strings whose edit distance to `query` *may* be
  // <= max_errors (count filter + length filter; no verification), in
  // ascending order.
  std::vector<int32_t> Candidates(std::string_view query, int max_errors) const;

  // Candidates verified with the banded edit-distance algorithm; every
  // returned id is truly within max_errors.
  std::vector<int32_t> SearchWithinDistance(std::string_view query, int max_errors) const;

  // The padded q-grams of `text` (exposed for tests and FastJoin).
  static std::vector<std::string> PaddedQGrams(std::string_view text, int q);

 private:
  int q_;
  std::vector<std::string> strings_;
  // Distinct gram codes, ascending; gram g's postings are
  // posting_ids_/posting_counts_[offsets_[g], offsets_[g + 1]): the
  // strings holding it (ascending id) and its multiplicity in each.
  std::vector<uint64_t> gram_codes_;
  std::vector<int32_t> offsets_;
  std::vector<int32_t> posting_ids_;
  std::vector<int32_t> posting_counts_;
};

}  // namespace kjoin

#endif  // KJOIN_TEXT_QGRAM_INDEX_H_
