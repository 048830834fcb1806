/**
 * @file
 * Plain-text table formatting for experiment output.
 *
 * Every bench binary reports its table or figure as an aligned text
 * table, mirroring the rows the paper prints.
 */

#ifndef OMA_SUPPORT_TABLE_HH
#define OMA_SUPPORT_TABLE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace oma
{

/**
 * A simple column-aligned text table. Columns are sized to their
 * widest cell; numeric formatting is the caller's responsibility
 * (use the cell() helpers).
 */
class TextTable
{
  public:
    /** Create a table with the given column headers. */
    explicit TextTable(std::vector<std::string> headers);

    /** Append a row; must have exactly as many cells as headers. */
    void addRow(std::vector<std::string> cells);

    /** Insert a horizontal rule before the next added row. */
    void addRule();

    /** Render with padded columns to @p os. */
    void print(std::ostream &os) const;

  private:
    std::vector<std::string> _headers;
    std::vector<std::vector<std::string>> _rows;
    std::vector<std::size_t> _rulesBefore;
};

/** Format a double with @p digits digits after the decimal point. */
[[nodiscard]] std::string fmtFixed(double value, int digits);

/** Format an integer with thousands separators ("163,438"). */
[[nodiscard]] std::string fmtGrouped(std::uint64_t value);

/** Format a ratio as a percentage string with @p digits decimals. */
[[nodiscard]] std::string fmtPercent(double value, int digits = 0);

/** Format a byte count as "2-KB", "32-KB", ... (power-of-two sizes). */
[[nodiscard]] std::string fmtKBytes(std::uint64_t bytes);

} // namespace oma

#endif // OMA_SUPPORT_TABLE_HH
