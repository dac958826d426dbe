/**
 * @file
 * Arrays backed by anonymous zero pages from the OS.
 *
 * A large simulated cache array that a trace touches only in part
 * should not cost its full capacity in resident memory. A std::vector
 * value-initializes (writes) every element, which faults in every
 * page. Anonymous mappings start as shared zero pages, so an element
 * type whose value-initialized state is all-zero bytes needs no
 * initialization at all, and resident memory follows the elements a
 * run actually writes.
 */

#ifndef DYNEX_UTIL_ZERO_PAGES_H
#define DYNEX_UTIL_ZERO_PAGES_H

#include <cstddef>
#include <type_traits>
#include <utility>

namespace dynex
{

/** Map @p bytes of anonymous zero-filled memory (throws
 * std::bad_alloc on failure); 0 bytes yields nullptr. */
void *mapZeroPages(std::size_t bytes);

/** Unmap a mapZeroPages() region; a null @p base is a no-op. */
void unmapZeroPages(void *base, std::size_t bytes);

/**
 * A fixed-size, move-only array of @p T on anonymous zero pages.
 *
 * T{} must be all-zero bytes: every element starts out as T{} without
 * being constructed. The mapping is rounded up to whole pages and
 * sanitizers do not poison the slack, so callers must keep their
 * indices in bounds themselves.
 */
template <typename T>
class ZeroPageArray
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "elements live in raw pages and are never destroyed");

  public:
    ZeroPageArray() = default;

    explicit ZeroPageArray(std::size_t n)
        : items(static_cast<T *>(mapZeroPages(n * sizeof(T)))), count(n)
    {
    }

    ~ZeroPageArray() { unmapZeroPages(items, count * sizeof(T)); }

    ZeroPageArray(ZeroPageArray &&other) noexcept
        : items(std::exchange(other.items, nullptr)),
          count(std::exchange(other.count, 0))
    {
    }

    ZeroPageArray &
    operator=(ZeroPageArray &&other) noexcept
    {
        std::swap(items, other.items);
        std::swap(count, other.count);
        return *this;
    }

    ZeroPageArray(const ZeroPageArray &) = delete;
    ZeroPageArray &operator=(const ZeroPageArray &) = delete;

    std::size_t size() const { return count; }

    T &operator[](std::size_t i) { return items[i]; }
    const T &operator[](std::size_t i) const { return items[i]; }

    T *begin() { return items; }
    T *end() { return items + count; }

  private:
    T *items = nullptr;
    std::size_t count = 0;
};

} // namespace dynex

#endif // DYNEX_UTIL_ZERO_PAGES_H
