/**
 * @file
 * A list of line numbers that counts its distinct members: how Cache
 * and Cheetah count compulsory misses.
 *
 * Adding a line appends it. The list keeps a sorted, deduplicated
 * prefix and folds the unsorted tail into it once the tail outgrows
 * both the prefix and a floor of 4,096 lines, so it holds at most
 * about twice the distinct lines plus that floor, eight bytes each,
 * in one array.
 */

#ifndef OMA_CACHE_DISTINCT_LINES_HH
#define OMA_CACHE_DISTINCT_LINES_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace oma
{

/** Line numbers, appended in any order and repeats allowed, that
 * report how many distinct ones were added. */
class DistinctLines
{
  public:
    /** Add @p line. */
    void
    add(std::uint64_t line)
    {
        _lines.push_back(line);
        if (_lines.size() - _sorted > std::max(_sorted, tailLimit))
            merge();
    }

    /** Fold the unsorted tail into the sorted prefix. */
    void
    merge()
    {
        if (_sorted == _lines.size())
            return;
        const auto tail = _lines.begin() + std::ptrdiff_t(_sorted);
        std::sort(tail, _lines.end());
        std::inplace_merge(_lines.begin(), tail, _lines.end());
        _lines.erase(std::unique(_lines.begin(), _lines.end()),
                     _lines.end());
        _sorted = _lines.size();
    }

    /** Distinct lines added so far. */
    [[nodiscard]] std::uint64_t
    count() const
    {
        // Count the unsorted tail's lines the sorted prefix lacks.
        const auto sorted_end = _lines.begin() + std::ptrdiff_t(_sorted);
        std::vector<std::uint64_t> tail(sorted_end, _lines.end());
        std::sort(tail.begin(), tail.end());
        tail.erase(std::unique(tail.begin(), tail.end()), tail.end());
        std::uint64_t distinct = _sorted;
        for (const std::uint64_t line : tail)
            if (!std::binary_search(_lines.begin(), sorted_end, line))
                ++distinct;
        return distinct;
    }

  private:
    /** Unsorted lines tolerated before a merge. */
    static constexpr std::size_t tailLimit = 4096;

    /** Sorted and unique up to _sorted; the rest is appended since. */
    std::vector<std::uint64_t> _lines;
    std::size_t _sorted = 0;
};

} // namespace oma

#endif // OMA_CACHE_DISTINCT_LINES_HH
