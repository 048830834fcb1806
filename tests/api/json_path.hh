/**
 * @file
 * Path lookups into a parsed JSON document, so tests can check JSON
 * output (run reports, SARIF logs) with the production strict parser
 * of support/json.hh, under the query API's spelling (api/json.hh).
 */

#ifndef OMA_TESTS_API_JSON_PATH_HH
#define OMA_TESTS_API_JSON_PATH_HH

#include <charconv>
#include <limits>
#include <string>
#include <string_view>

#include "api/json.hh"

namespace oma::api
{

/**
 * The value at dot-separated @p path below @p root, or nullptr when
 * any step is missing. Object members are named by key and array
 * elements by decimal index, e.g. "runs.0.results.0.ruleId".
 */
inline const JsonValue *
jsonAt(const JsonValue &root, std::string_view path)
{
    const JsonValue *at = &root;
    while (at != nullptr && !path.empty()) {
        const std::size_t dot = path.find('.');
        const std::string_view step = path.substr(0, dot);
        path = dot == std::string_view::npos ? std::string_view()
                                             : path.substr(dot + 1);
        if (at->kind != JsonValue::Kind::Array) {
            at = at->find(step);
            continue;
        }
        std::size_t i = 0;
        const char *end = step.data() + step.size();
        const auto [ptr, ec] = std::from_chars(step.data(), end, i);
        at = ec == std::errc() && ptr == end && i < at->array.size()
            ? &at->array[i]
            : nullptr;
    }
    return at;
}

/** The string at @p path ("" when absent or not a string). */
inline std::string
jsonString(const JsonValue &root, std::string_view path)
{
    const JsonValue *v = jsonAt(root, path);
    return v != nullptr && v->kind == JsonValue::Kind::String
        ? v->string
        : std::string();
}

/** The number at @p path (NaN when absent or not a number). */
inline double
jsonNumber(const JsonValue &root, std::string_view path)
{
    const JsonValue *v = jsonAt(root, path);
    double out = 0.0;
    return v != nullptr && v->asReal(out)
        ? out
        : std::numeric_limits<double>::quiet_NaN();
}

} // namespace oma::api

#endif // OMA_TESTS_API_JSON_PATH_HH
