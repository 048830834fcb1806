/**
 * @file
 * Minimal strict JSON: the one JSON implementation of the tree.
 *
 * The wire format of oma_serve is newline-delimited JSON
 * (docs/MODEL.md §14), and run reports and oma_lint's SARIF log are
 * JSON too, so every layer shares one parser and one writer with
 * three properties the usual "lenient" helpers lack:
 *
 * * *Strict.* Exactly the JSON grammar: no comments, no trailing
 *   commas, no duplicate object keys, no trailing garbage, bounded
 *   nesting. A malformed request is rejected with a positioned error
 *   instead of being half-understood.
 *
 * * *Deterministic.* Writing preserves member order and renders
 *   numbers via std::to_chars (shortest round-trip form for doubles),
 *   so encode(decode(x)) is byte-identical and responses can be
 *   compared bitwise across cold / warm / deduplicated serving paths.
 *
 * * *Exact integers.* Numbers keep their raw text; u64 fields are
 *   re-parsed from that text instead of round-tripping through a
 *   double, so 64-bit seeds survive unclipped.
 *
 * This is a deliberate in-tree dependency-free implementation: the
 * container images carry no JSON library, and the codec surface the
 * tree needs is small (see tests/api/test_json.cc).
 */

#ifndef OMA_SUPPORT_JSON_HH
#define OMA_SUPPORT_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace oma
{

/** One parsed JSON value (a tree; object member order preserved). */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    /** Raw numeric token text (valid per the JSON grammar). */
    std::string number;
    /** Decoded string contents (escapes resolved). */
    std::string string;
    std::vector<JsonValue> array;
    /** Members in source order; the parser rejects duplicate keys. */
    std::vector<std::pair<std::string, JsonValue>> object;

    /** Member of an Object by key, nullptr when absent. */
    [[nodiscard]] const JsonValue *find(std::string_view key) const;

    /** Exact unsigned 64-bit read: Number kind, integral token, in
     * range. No silent truncation through a double. */
    [[nodiscard]] bool asU64(std::uint64_t &out) const;

    /** Finite double read from the raw numeric token. */
    [[nodiscard]] bool asReal(double &out) const;
};

/**
 * Parse @p text as exactly one strict JSON document.
 *
 * @retval true @p out holds the parsed tree.
 * @retval false @p error describes the first violation with its byte
 *         offset; @p out is unspecified.
 */
[[nodiscard]] bool parseJson(std::string_view text, JsonValue &out,
                             std::string &error);

/** Serialize a value tree: minimal whitespace-free form, member
 * order preserved — the inverse of parseJson up to number
 * normalization (tokens are re-emitted verbatim). */
[[nodiscard]] std::string writeJson(const JsonValue &value);

// Writer building blocks shared by the request/response codecs, the
// run-report writer and the SARIF printer.

/** Append @p s as a quoted JSON string (escaping `"` `\` and control
 * characters). */
void appendJsonString(std::string &out, std::string_view s);

/** Append @p v in decimal. */
void appendJsonU64(std::string &out, std::uint64_t v);

/** Append finite @p v in shortest round-trip form (fatal on NaN or
 * infinity, which have no JSON encoding). */
void appendJsonReal(std::string &out, double v);

} // namespace oma

#endif // OMA_SUPPORT_JSON_HH
