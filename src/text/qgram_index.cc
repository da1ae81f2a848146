#include "text/qgram_index.h"

#include <algorithm>
#include <cstdlib>
#include <tuple>

#include "common/logging.h"
#include "text/edit_distance.h"

namespace kjoin {
namespace {

constexpr char kLeftPad = '\x01';
constexpr char kRightPad = '\x02';

// The codes of `text`'s padded q-grams, one per gram (repeats kept), in
// text order. A code is the gram's q bytes packed big-endian, so equal
// grams and only equal grams share a code.
void GramCodes(std::string_view text, int q, std::vector<uint64_t>* codes) {
  codes->clear();
  const size_t pad = static_cast<size_t>(q - 1);
  const size_t padded = text.size() + 2 * pad;
  if (padded < static_cast<size_t>(q)) return;
  const uint64_t mask = q == 8 ? ~uint64_t{0} : (uint64_t{1} << (8 * q)) - 1;
  uint64_t code = 0;
  for (size_t p = 0; p < padded; ++p) {
    const char c = p < pad ? kLeftPad : (p < pad + text.size() ? text[p - pad] : kRightPad);
    code = ((code << 8) | static_cast<unsigned char>(c)) & mask;
    if (p + 1 >= static_cast<size_t>(q)) codes->push_back(code);
  }
}

// Per-thread lookup scratch, shared by every index the thread queries.
// Invariant between calls: every counter is zero and `touched` is empty —
// Candidates restores both as it drains, so a lookup never re-clears
// memory it did not touch.
struct CountScratch {
  std::vector<int32_t> counts;  // shared-gram count per string id
  std::vector<int32_t> touched;  // ids with a non-zero count
  std::vector<uint64_t> codes;   // the query's gram codes
};

thread_local CountScratch tls_count_scratch;

}  // namespace

std::vector<std::string> QGramIndex::PaddedQGrams(std::string_view text, int q) {
  KJOIN_CHECK_GE(q, 1);
  std::string padded;
  padded.reserve(text.size() + 2 * (q - 1));
  padded.append(q - 1, kLeftPad);
  padded.append(text);
  padded.append(q - 1, kRightPad);
  std::vector<std::string> grams;
  if (padded.size() < static_cast<size_t>(q)) return grams;
  grams.reserve(padded.size() - q + 1);
  for (size_t i = 0; i + q <= padded.size(); ++i) grams.push_back(padded.substr(i, q));
  return grams;
}

QGramIndex::QGramIndex(std::vector<std::string> strings, int q)
    : q_(q), strings_(std::move(strings)) {
  KJOIN_CHECK(q >= 1 && q <= kMaxQ) << "q must be in [1, " << kMaxQ << "], got " << q;
  // (code, string id, multiplicity), then grouped by code into CSR.
  std::vector<std::tuple<uint64_t, int32_t, int32_t>> entries;
  std::vector<uint64_t> codes;
  for (int32_t id = 0; id < static_cast<int32_t>(strings_.size()); ++id) {
    GramCodes(strings_[id], q_, &codes);
    std::sort(codes.begin(), codes.end());
    for (size_t i = 0; i < codes.size();) {
      size_t j = i;
      while (j < codes.size() && codes[j] == codes[i]) ++j;
      entries.emplace_back(codes[i], id, static_cast<int32_t>(j - i));
      i = j;
    }
  }
  std::sort(entries.begin(), entries.end());
  posting_ids_.reserve(entries.size());
  posting_counts_.reserve(entries.size());
  for (const auto& [code, id, count] : entries) {
    if (gram_codes_.empty() || gram_codes_.back() != code) {
      gram_codes_.push_back(code);
      offsets_.push_back(static_cast<int32_t>(posting_ids_.size()));
    }
    posting_ids_.push_back(id);
    posting_counts_.push_back(count);
  }
  offsets_.push_back(static_cast<int32_t>(posting_ids_.size()));
}

std::vector<int32_t> QGramIndex::Candidates(std::string_view query, int max_errors) const {
  KJOIN_CHECK_GE(max_errors, 0);
  const int query_len = static_cast<int>(query.size());
  std::vector<int32_t> result;

  // If the count-filter bound can reach <= 0 for some admissible length,
  // it is vacuous: fall back to the plain length filter.
  if (query_len + q_ - 1 - q_ * max_errors <= 0) {
    for (int32_t id = 0; id < static_cast<int32_t>(strings_.size()); ++id) {
      if (std::abs(static_cast<int>(strings_[id].size()) - query_len) <= max_errors) {
        result.push_back(id);
      }
    }
    return result;
  }

  // Exact multiset q-gram intersection sizes, counted over the postings
  // of each distinct query gram.
  CountScratch& scratch = tls_count_scratch;
  if (scratch.counts.size() < strings_.size()) scratch.counts.resize(strings_.size(), 0);
  GramCodes(query, q_, &scratch.codes);
  std::sort(scratch.codes.begin(), scratch.codes.end());
  for (size_t i = 0; i < scratch.codes.size();) {
    const uint64_t code = scratch.codes[i];
    size_t j = i;
    while (j < scratch.codes.size() && scratch.codes[j] == code) ++j;
    const auto query_count = static_cast<int32_t>(j - i);
    i = j;
    const auto it = std::lower_bound(gram_codes_.begin(), gram_codes_.end(), code);
    if (it == gram_codes_.end() || *it != code) continue;
    const size_t gram = static_cast<size_t>(it - gram_codes_.begin());
    for (int32_t p = offsets_[gram]; p < offsets_[gram + 1]; ++p) {
      const int32_t id = posting_ids_[static_cast<size_t>(p)];
      int32_t& count = scratch.counts[static_cast<size_t>(id)];
      if (count == 0) scratch.touched.push_back(id);
      count += std::min(query_count, posting_counts_[static_cast<size_t>(p)]);
    }
  }
  // Length filter, then the count threshold, which grows with the longer
  // of the two strings; drain the counters back to zero on the way.
  for (const int32_t id : scratch.touched) {
    int32_t& count = scratch.counts[static_cast<size_t>(id)];
    const int32_t overlap = count;
    count = 0;
    const int cand_len = static_cast<int>(strings_[id].size());
    if (std::abs(cand_len - query_len) > max_errors) continue;
    const int required = std::max(cand_len, query_len) + q_ - 1 - q_ * max_errors;
    if (overlap >= required) result.push_back(id);
  }
  scratch.touched.clear();
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<int32_t> QGramIndex::SearchWithinDistance(std::string_view query,
                                                      int max_errors) const {
  std::vector<int32_t> result;
  for (int32_t id : Candidates(query, max_errors)) {
    if (EditDistanceBounded(query, strings_[id], max_errors) <= max_errors) {
      result.push_back(id);
    }
  }
  return result;
}

}  // namespace kjoin
