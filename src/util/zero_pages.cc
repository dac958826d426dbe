#include "util/zero_pages.h"

#include <new>

#include <sys/mman.h>

namespace dynex
{

void *
mapZeroPages(std::size_t bytes)
{
    if (bytes == 0)
        return nullptr;
    void *base = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED)
        throw std::bad_alloc();
    return base;
}

void
unmapZeroPages(void *base, std::size_t bytes)
{
    if (base != nullptr)
        munmap(base, bytes);
}

} // namespace dynex
