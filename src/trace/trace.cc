#include "trace/trace.h"

#include <algorithm>
#include <sstream>

#include "util/logging.h"

namespace dynex
{

const char *
refTypeName(RefType type)
{
    switch (type) {
      case RefType::Ifetch:
        return "ifetch";
      case RefType::Load:
        return "load";
      case RefType::Store:
        return "store";
    }
    return "unknown";
}

const char *
streamSuffix(StreamKind stream)
{
    switch (stream) {
      case StreamKind::Instructions:
        return ".ifetch";
      case StreamKind::Data:
        return ".data";
      case StreamKind::Mixed:
        return "";
    }
    return "";
}

const char *
streamKindName(StreamKind stream)
{
    switch (stream) {
      case StreamKind::Instructions:
        return "instruction";
      case StreamKind::Data:
        return "data";
      case StreamKind::Mixed:
        return "mixed";
    }
    return "unknown";
}

std::string
toString(const MemRef &ref)
{
    std::ostringstream oss;
    oss << refTypeName(ref.type) << " 0x" << std::hex << ref.addr << "/"
        << std::dec << static_cast<int>(ref.size);
    return oss.str();
}

std::string
TraceSummary::toString() const
{
    std::ostringstream oss;
    oss << total << " refs (" << ifetches << " ifetch, " << loads
        << " load, " << stores << " store), " << uniqueWords
        << " unique words";
    return oss.str();
}

Trace
Trace::fromPattern(const std::string &pattern, Addr base, Addr stride)
{
    Trace trace("pattern:" + pattern);
    trace.reserve(pattern.size());
    for (char letter : pattern) {
        DYNEX_ASSERT(letter >= 'a' && letter <= 'z',
                     "pattern letters must be a-z, got '", letter, "'");
        const auto index = static_cast<Addr>(letter - 'a');
        trace.append(ifetch(base + index * stride));
    }
    return trace;
}

void
Trace::append(const Trace &other)
{
    refs.insert(refs.end(), other.refs.begin(), other.refs.end());
}

namespace
{

/**
 * Exact distinct-count over an open-addressing table keyed by word
 * address: O(n) expected, no copy of the reference vector and no sort.
 * Word addresses are 4-byte aligned, so word+1 (never a valid key) is
 * the empty-slot marker.
 */
class WordCounter
{
  public:
    explicit WordCounter(std::size_t expected)
    {
        std::size_t capacity = 256;
        while (capacity < expected / 2)
            capacity *= 2;
        slots.assign(capacity, kEmpty);
        limit = capacity - capacity / 4; // 0.75 load factor
    }

    void
    insert(Addr word)
    {
        std::size_t slot = hash(word) & (slots.size() - 1);
        while (slots[slot] != kEmpty) {
            if (slots[slot] == word)
                return;
            slot = (slot + 1) & (slots.size() - 1);
        }
        slots[slot] = word;
        if (++used >= limit)
            grow();
    }

    Count count() const { return used; }

  private:
    static constexpr Addr kEmpty = 1; ///< unaligned, so never a word

    static std::size_t
    hash(Addr word)
    {
        std::uint64_t x = word;
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdULL;
        x ^= x >> 33;
        return static_cast<std::size_t>(x);
    }

    void
    grow()
    {
        std::vector<Addr> old(slots.size() * 2, kEmpty);
        old.swap(slots);
        limit = slots.size() - slots.size() / 4;
        for (const Addr word : old) {
            if (word == kEmpty)
                continue;
            std::size_t slot = hash(word) & (slots.size() - 1);
            while (slots[slot] != kEmpty)
                slot = (slot + 1) & (slots.size() - 1);
            slots[slot] = word;
        }
    }

    std::vector<Addr> slots;
    std::size_t used = 0;
    std::size_t limit = 0;
};

} // namespace

TraceSummary
Trace::summarize() const
{
    TraceSummary summary;
    summary.total = refs.size();
    WordCounter words(refs.size());
    for (const auto &ref : refs) {
        switch (ref.type) {
          case RefType::Ifetch:
            ++summary.ifetches;
            break;
          case RefType::Load:
            ++summary.loads;
            break;
          case RefType::Store:
            ++summary.stores;
            break;
        }
        summary.minAddr = std::min(summary.minAddr, ref.addr);
        summary.maxAddr = std::max(summary.maxAddr, ref.addr);
        words.insert(ref.addr & ~Addr{3});
    }
    summary.uniqueWords = words.count();
    return summary;
}

} // namespace dynex
