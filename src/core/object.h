#ifndef KJOIN_CORE_OBJECT_H_
#define KJOIN_CORE_OBJECT_H_

// Objects (records) and their construction from raw text.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/element.h"
#include "text/entity_matcher.h"
#include "text/tokenizer.h"

namespace kjoin {

// A record as K-Join sees it: a multiset of elements. |S| in the paper is
// size().
struct Object {
  int32_t id = -1;
  std::vector<Element> elements;

  int32_t size() const { return static_cast<int32_t>(elements.size()); }
};

// Turns token lists into Objects: interns tokens (identical tokens across
// *both* join sides must share token ids, so use one builder per join) and
// resolves each token against the knowledge hierarchy through the
// EntityMatcher. The builder is also the token dictionary: it stores each
// interned token's mappings next to its id, so the matcher runs once per
// distinct token, not once per occurrence.
//
// Two paths:
//   * the write path — Build, BuildFromText, BuildWithSpans, InternToken,
//     PreloadTokens — interns new tokens and computes their mappings. It
//     needs external serialization: at most one writer at a time.
//   * the read path — BuildQuery, TokenId — never interns and takes no
//     lock. It may run on any number of threads at once, next to that one
//     writer: dictionary lookups go through an append-only open-addressing
//     table whose slots and growth are published with release stores, and
//     entries never move once published.
class ObjectBuilder {
 public:
  // `matcher` must outlive the builder. multi_mapping=false gives the
  // paper's K-Join (one exact/synonym node per element), true gives
  // K-Join+ (§6.4: multiple nodes via ambiguity, synonyms and typos).
  ObjectBuilder(const EntityMatcher& matcher, bool multi_mapping);

  // Copies the dictionary (ids and stored mappings). Not concurrently
  // with a writer on `other`.
  ObjectBuilder(const ObjectBuilder& other);
  ObjectBuilder& operator=(const ObjectBuilder&) = delete;
  ~ObjectBuilder();

  // Write path: interns every token not seen before.
  Object Build(int32_t id, const std::vector<std::string>& tokens);

  // Tokenizes `text` first (lower-case alphanumeric tokens).
  Object BuildFromText(int32_t id, std::string_view text);

  // Greedy longest-span entity recognition: runs of up to `max_span`
  // consecutive tokens whose concatenation matches a hierarchy label or
  // synonym exactly become ONE element ("mountain view" ->
  // MountainView). Multi-token spans require an exact/synonym match
  // (φ = 1) — approximate matching on concatenations would produce junk
  // entities. Remaining tokens are handled as in Build.
  Object BuildWithSpans(int32_t id, const std::vector<std::string>& tokens, int max_span = 3);

  // Read path: the object Build would return, without changing the
  // dictionary. Known tokens copy their stored mappings; a token the
  // dictionary does not hold is matched on the spot and gets an
  // ephemeral id (kFirstEphemeralTokenId + k for the query's k-th
  // distinct novel token). Searching an index with such an object is
  // exact as long as the index holds no token this build found novel —
  // see KJoinServer for how the server keeps that invariant.
  Object BuildQuery(int32_t id, const std::vector<std::string>& tokens) const;

  // Interned id of the (normalized) `token`, or -1. Read path.
  int32_t TokenId(std::string_view token) const;

  // Dense id of `token`, creating one (and storing its mappings) if new.
  int32_t InternToken(const std::string& token);

  // Seeds a fresh builder with a snapshot's token table: tokens[i] gets
  // id i, so objects built afterwards are id-compatible with a collection
  // serialized alongside that table (serve/snapshot.h). Mappings are
  // computed here, so the restored builder answers queries from stored
  // mappings like the one that wrote the table. Requires a builder with
  // no tokens yet and no duplicate entries in `tokens`.
  void PreloadTokens(const std::vector<std::string>& tokens);

  // Every interned token in id order — what PreloadTokens consumes on
  // restore. Write side: not concurrently with a writer.
  std::vector<std::string> TokenTable() const;

  // Write side, like TokenTable.
  int64_t num_distinct_tokens() const { return static_cast<int64_t>(entries_.size()); }
  bool multi_mapping() const { return multi_mapping_; }

 private:
  struct TokenEntry {
    std::string token;
    size_t hash = 0;
    int32_t id = 0;
    std::vector<ElementMapping> mappings;
  };

  // Open-addressing slots over entries_ (linear probing, at most half
  // full). A full table is replaced by one twice its size; replaced
  // tables stay allocated until the builder dies, since a reader may
  // still be probing one (their total is below the live table's size).
  struct Table {
    explicit Table(size_t capacity);
    size_t mask;
    std::unique_ptr<std::atomic<const TokenEntry*>[]> slots;
  };

  // The matcher's verdict on `token`, as element mappings.
  std::vector<ElementMapping> ComputeMappings(const std::string& token) const;
  const TokenEntry* Find(std::string_view token, size_t hash) const;
  const TokenEntry& Intern(const std::string& token);
  // An element for `token` through the write path.
  Element InternedElement(const std::string& token);
  // Writer side: places `entry` in the live table.
  void Publish(const TokenEntry* entry);
  // Writer side: publishes a new live table of `capacity` slots holding
  // every entry.
  void Rehash(size_t capacity);

  const EntityMatcher* matcher_;
  bool multi_mapping_;
  Tokenizer tokenizer_;
  // Id order; a deque so appends never move a published entry.
  std::deque<TokenEntry> entries_;
  std::vector<std::unique_ptr<Table>> tables_;  // back() is the live one
  std::atomic<const Table*> table_{nullptr};
};

}  // namespace kjoin

#endif  // KJOIN_CORE_OBJECT_H_
