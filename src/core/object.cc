#include "core/object.h"

#include <functional>

#include "common/logging.h"

namespace kjoin {
namespace {

constexpr size_t kInitialTableCapacity = 64;

size_t HashToken(std::string_view token) { return std::hash<std::string_view>{}(token); }

}  // namespace

ObjectBuilder::Table::Table(size_t capacity)
    : mask(capacity - 1), slots(new std::atomic<const TokenEntry*>[capacity]()) {}

ObjectBuilder::ObjectBuilder(const EntityMatcher& matcher, bool multi_mapping)
    : matcher_(&matcher), multi_mapping_(multi_mapping) {
  Rehash(kInitialTableCapacity);
}

ObjectBuilder::ObjectBuilder(const ObjectBuilder& other)
    : matcher_(other.matcher_),
      multi_mapping_(other.multi_mapping_),
      tokenizer_(other.tokenizer_),
      entries_(other.entries_) {
  size_t capacity = kInitialTableCapacity;
  while (2 * entries_.size() > capacity) capacity *= 2;
  Rehash(capacity);
}

ObjectBuilder::~ObjectBuilder() = default;

void ObjectBuilder::Rehash(size_t capacity) {
  // Fill the new table before publishing it: readers switch to it whole,
  // with every entry in place.
  tables_.push_back(std::make_unique<Table>(capacity));
  for (const TokenEntry& entry : entries_) Publish(&entry);
  table_.store(tables_.back().get(), std::memory_order_release);
}

void ObjectBuilder::Publish(const TokenEntry* entry) {
  // Writer only; the release store hands readers a fully built entry.
  const Table& table = *tables_.back();
  size_t slot = entry->hash & table.mask;
  while (table.slots[slot].load(std::memory_order_relaxed) != nullptr) {
    slot = (slot + 1) & table.mask;
  }
  table.slots[slot].store(entry, std::memory_order_release);
}

const ObjectBuilder::TokenEntry* ObjectBuilder::Find(std::string_view token,
                                                     size_t hash) const {
  const Table& table = *table_.load(std::memory_order_acquire);
  for (size_t slot = hash & table.mask;; slot = (slot + 1) & table.mask) {
    const TokenEntry* entry = table.slots[slot].load(std::memory_order_acquire);
    if (entry == nullptr) return nullptr;
    if (entry->hash == hash && entry->token == token) return entry;
  }
}

std::vector<ElementMapping> ObjectBuilder::ComputeMappings(const std::string& token) const {
  std::vector<ElementMapping> mappings;
  if (multi_mapping_) {
    for (const EntityMatch& match : matcher_->MatchAll(token)) {
      mappings.push_back({match.node, match.phi});
    }
  } else if (auto match = matcher_->MatchOne(token); match.has_value()) {
    mappings.push_back({match->node, match->phi});
  }
  return mappings;
}

const ObjectBuilder::TokenEntry& ObjectBuilder::Intern(const std::string& token) {
  const size_t hash = HashToken(token);
  if (const TokenEntry* found = Find(token, hash)) return *found;
  KJOIN_CHECK_LT(entries_.size(), static_cast<size_t>(kFirstEphemeralTokenId))
      << "token dictionary full";
  const TokenEntry& entry = entries_.emplace_back(TokenEntry{
      token, hash, static_cast<int32_t>(entries_.size()), ComputeMappings(token)});
  const size_t capacity = tables_.back()->mask + 1;
  if (2 * entries_.size() > capacity) {
    Rehash(2 * capacity);
  } else {
    Publish(&entry);
  }
  return entry;
}

int32_t ObjectBuilder::InternToken(const std::string& token) { return Intern(token).id; }

int32_t ObjectBuilder::TokenId(std::string_view token) const {
  const TokenEntry* entry = Find(token, HashToken(token));
  return entry != nullptr ? entry->id : -1;
}

void ObjectBuilder::PreloadTokens(const std::vector<std::string>& tokens) {
  KJOIN_CHECK(entries_.empty()) << "PreloadTokens needs a fresh builder";
  for (const std::string& token : tokens) {
    const int32_t id = InternToken(token);
    KJOIN_CHECK_EQ(static_cast<size_t>(id) + 1, entries_.size())
        << "duplicate token in preload table: " << token;
  }
}

std::vector<std::string> ObjectBuilder::TokenTable() const {
  std::vector<std::string> table;
  table.reserve(entries_.size());
  for (const TokenEntry& entry : entries_) table.push_back(entry.token);
  return table;
}

Element ObjectBuilder::InternedElement(const std::string& token) {
  const TokenEntry& entry = Intern(token);
  Element element;
  element.token = token;
  element.token_id = entry.id;
  element.mappings = entry.mappings;
  return element;
}

Object ObjectBuilder::Build(int32_t id, const std::vector<std::string>& tokens) {
  Object object;
  object.id = id;
  object.elements.reserve(tokens.size());
  for (const std::string& raw : tokens) {
    const std::string token = tokenizer_.Normalize(raw);
    if (token.empty()) continue;
    object.elements.push_back(InternedElement(token));
  }
  return object;
}

Object ObjectBuilder::BuildQuery(int32_t id, const std::vector<std::string>& tokens) const {
  Object object;
  object.id = id;
  object.elements.reserve(tokens.size());
  int32_t next_ephemeral = kFirstEphemeralTokenId;
  for (const std::string& raw : tokens) {
    Element element;
    element.token = tokenizer_.Normalize(raw);
    if (element.token.empty()) continue;
    // A repeat of a token this query already found novel keeps its
    // ephemeral id, even if a concurrent writer has interned it since:
    // one token, one id within an object.
    const Element* novel = nullptr;
    for (const Element& earlier : object.elements) {
      if (!IsInternedTokenId(earlier.token_id) && earlier.token == element.token) {
        novel = &earlier;
        break;
      }
    }
    if (novel != nullptr) {
      element.token_id = novel->token_id;
      element.mappings = novel->mappings;
    } else if (const TokenEntry* entry = Find(element.token, HashToken(element.token))) {
      element.token_id = entry->id;
      element.mappings = entry->mappings;
    } else {
      element.token_id = next_ephemeral++;
      element.mappings = ComputeMappings(element.token);
    }
    object.elements.push_back(std::move(element));
  }
  return object;
}

Object ObjectBuilder::BuildFromText(int32_t id, std::string_view text) {
  return Build(id, tokenizer_.Tokenize(text));
}

Object ObjectBuilder::BuildWithSpans(int32_t id, const std::vector<std::string>& tokens,
                                     int max_span) {
  Object object;
  object.id = id;
  // Normalize once.
  std::vector<std::string> normalized;
  normalized.reserve(tokens.size());
  for (const std::string& raw : tokens) {
    std::string token = tokenizer_.Normalize(raw);
    if (!token.empty()) normalized.push_back(std::move(token));
  }

  size_t i = 0;
  while (i < normalized.size()) {
    size_t taken = 1;
    // Longest span first; multi-token spans must match exactly (φ = 1).
    for (size_t span = std::min<size_t>(max_span, normalized.size() - i); span >= 2; --span) {
      std::string concatenated;
      for (size_t k = 0; k < span; ++k) concatenated += normalized[i + k];
      if (!matcher_->MatchOne(concatenated).has_value()) continue;
      object.elements.push_back(InternedElement(concatenated));
      taken = span;
      break;
    }
    if (taken == 1) object.elements.push_back(InternedElement(normalized[i]));
    i += taken;
  }
  return object;
}

}  // namespace kjoin
