/**
 * @file
 * Implementation of text-table formatting.
 */

#include "support/table.hh"

#include <algorithm>
#include <cstdio>

#include "support/logging.hh"

namespace oma
{

TextTable::TextTable(std::vector<std::string> headers)
    : _headers(std::move(headers))
{
    panicIf(_headers.empty(), "TextTable needs at least one column");
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    panicIf(cells.size() != _headers.size(),
            "TextTable row width mismatch");
    _rows.push_back(std::move(cells));
}

void
TextTable::addRule()
{
    _rulesBefore.push_back(_rows.size());
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> width(_headers.size());
    for (std::size_t c = 0; c < _headers.size(); ++c)
        width[c] = _headers[c].size();
    for (const auto &row : _rows)
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    auto print_rule = [&]() {
        for (std::size_t c = 0; c < width.size(); ++c) {
            os << std::string(width[c] + 2, '-');
            if (c + 1 < width.size())
                os << '+';
        }
        os << '\n';
    };

    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << ' ' << row[c]
               << std::string(width[c] - row[c].size() + 1, ' ');
            if (c + 1 < row.size())
                os << '|';
        }
        os << '\n';
    };

    print_row(_headers);
    print_rule();
    for (std::size_t r = 0; r < _rows.size(); ++r) {
        if (std::find(_rulesBefore.begin(), _rulesBefore.end(), r) !=
            _rulesBefore.end() && r != 0) {
            print_rule();
        }
        print_row(_rows[r]);
    }
}

std::string
fmtFixed(double value, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
    return buf;
}

std::string
fmtGrouped(std::uint64_t value)
{
    std::string digits = std::to_string(value);
    std::string out;
    const std::size_t n = digits.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (i && (n - i) % 3 == 0)
            out.push_back(',');
        out.push_back(digits[i]);
    }
    return out;
}

std::string
fmtPercent(double value, int digits)
{
    return fmtFixed(value * 100.0, digits) + "%";
}

std::string
fmtKBytes(std::uint64_t bytes)
{
    if (bytes >= 1024 && bytes % 1024 == 0)
        return std::to_string(bytes / 1024) + "-KB";
    return std::to_string(bytes) + "-B";
}

} // namespace oma
