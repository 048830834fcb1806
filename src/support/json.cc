/**
 * @file
 * Strict JSON parser/writer implementation.
 */

#include "support/json.hh"

#include <charconv>
#include <cmath>

#include "support/logging.hh"

namespace oma
{

namespace
{

/** Nesting bound: deep enough for any sane document, shallow enough
 * that hostile input cannot blow the parser's stack. */
constexpr int maxDepth = 64;

struct Parser
{
    std::string_view text;
    std::size_t pos = 0;
    std::string error;

    bool
    fail(const std::string &what)
    {
        error = what + " at byte " + std::to_string(pos);
        return false;
    }

    [[nodiscard]] bool
    atEnd() const
    {
        return pos >= text.size();
    }

    [[nodiscard]] char
    peek() const
    {
        return text[pos];
    }

    void
    skipSpace()
    {
        while (!atEnd()) {
            const char c = text[pos];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                return;
            ++pos;
        }
    }

    bool
    expect(char c)
    {
        if (atEnd() || text[pos] != c)
            return fail(std::string("expected '") + c + "'");
        ++pos;
        return true;
    }

    bool
    literal(std::string_view word)
    {
        if (text.substr(pos, word.size()) != word)
            return fail("invalid literal");
        pos += word.size();
        return true;
    }

    bool parseValue(JsonValue &out, int depth);
    bool parseNumber(JsonValue &out);
    bool parseString(std::string &out);
    bool parseArray(JsonValue &out, int depth);
    bool parseObject(JsonValue &out, int depth);
};

bool
Parser::parseNumber(JsonValue &out)
{
    const std::size_t start = pos;
    if (!atEnd() && peek() == '-')
        ++pos;
    if (atEnd() || peek() < '0' || peek() > '9')
        return fail("invalid number");
    if (peek() == '0') {
        ++pos;
    } else {
        while (!atEnd() && peek() >= '0' && peek() <= '9')
            ++pos;
    }
    if (!atEnd() && peek() == '.') {
        ++pos;
        if (atEnd() || peek() < '0' || peek() > '9')
            return fail("digits required after decimal point");
        while (!atEnd() && peek() >= '0' && peek() <= '9')
            ++pos;
    }
    if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
        ++pos;
        if (!atEnd() && (peek() == '+' || peek() == '-'))
            ++pos;
        if (atEnd() || peek() < '0' || peek() > '9')
            return fail("digits required in exponent");
        while (!atEnd() && peek() >= '0' && peek() <= '9')
            ++pos;
    }
    out.kind = JsonValue::Kind::Number;
    out.number.assign(text.substr(start, pos - start));
    return true;
}

/** Append one Unicode code point as UTF-8. */
void
appendUtf8(std::string &out, std::uint32_t cp)
{
    if (cp < 0x80) {
        out.push_back(char(cp));
    } else if (cp < 0x800) {
        out.push_back(char(0xc0 | (cp >> 6)));
        out.push_back(char(0x80 | (cp & 0x3f)));
    } else if (cp < 0x10000) {
        out.push_back(char(0xe0 | (cp >> 12)));
        out.push_back(char(0x80 | ((cp >> 6) & 0x3f)));
        out.push_back(char(0x80 | (cp & 0x3f)));
    } else {
        out.push_back(char(0xf0 | (cp >> 18)));
        out.push_back(char(0x80 | ((cp >> 12) & 0x3f)));
        out.push_back(char(0x80 | ((cp >> 6) & 0x3f)));
        out.push_back(char(0x80 | (cp & 0x3f)));
    }
}

bool
Parser::parseString(std::string &out)
{
    if (!expect('"'))
        return false;
    out.clear();
    while (true) {
        if (atEnd())
            return fail("unterminated string");
        const unsigned char c = static_cast<unsigned char>(text[pos]);
        if (c == '"') {
            ++pos;
            return true;
        }
        if (c < 0x20)
            return fail("raw control character in string");
        if (c != '\\') {
            out.push_back(char(c));
            ++pos;
            continue;
        }
        ++pos; // consume the backslash
        if (atEnd())
            return fail("unterminated escape");
        const char esc = text[pos++];
        switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
            const auto hex4 = [this](std::uint32_t &v) {
                if (text.size() - pos < 4)
                    return false;
                v = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text[pos + std::size_t(i)];
                    v <<= 4;
                    if (h >= '0' && h <= '9')
                        v |= std::uint32_t(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        v |= std::uint32_t(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        v |= std::uint32_t(h - 'A' + 10);
                    else
                        return false;
                }
                pos += 4;
                return true;
            };
            std::uint32_t cp = 0;
            if (!hex4(cp))
                return fail("invalid \\u escape");
            if (cp >= 0xd800 && cp <= 0xdbff) {
                // High surrogate: require the paired low surrogate.
                std::uint32_t lo = 0;
                if (text.substr(pos, 2) != "\\u") {
                    return fail("unpaired surrogate");
                }
                pos += 2;
                if (!hex4(lo) || lo < 0xdc00 || lo > 0xdfff)
                    return fail("unpaired surrogate");
                cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
            } else if (cp >= 0xdc00 && cp <= 0xdfff) {
                return fail("unpaired surrogate");
            }
            appendUtf8(out, cp);
            break;
        }
        default: return fail("invalid escape");
        }
    }
}

bool
Parser::parseArray(JsonValue &out, int depth)
{
    if (!expect('['))
        return false;
    out.kind = JsonValue::Kind::Array;
    skipSpace();
    if (!atEnd() && peek() == ']') {
        ++pos;
        return true;
    }
    while (true) {
        JsonValue element;
        if (!parseValue(element, depth))
            return false;
        out.array.push_back(std::move(element));
        skipSpace();
        if (atEnd())
            return fail("unterminated array");
        if (peek() == ',') {
            ++pos;
            continue;
        }
        if (peek() == ']') {
            ++pos;
            return true;
        }
        return fail("expected ',' or ']'");
    }
}

bool
Parser::parseObject(JsonValue &out, int depth)
{
    if (!expect('{'))
        return false;
    out.kind = JsonValue::Kind::Object;
    skipSpace();
    if (!atEnd() && peek() == '}') {
        ++pos;
        return true;
    }
    while (true) {
        skipSpace();
        std::string key;
        if (!parseString(key))
            return false;
        for (const auto &member : out.object) {
            if (member.first == key)
                return fail("duplicate object key \"" + key + "\"");
        }
        skipSpace();
        if (!expect(':'))
            return false;
        JsonValue value;
        if (!parseValue(value, depth))
            return false;
        out.object.emplace_back(std::move(key), std::move(value));
        skipSpace();
        if (atEnd())
            return fail("unterminated object");
        if (peek() == ',') {
            ++pos;
            continue;
        }
        if (peek() == '}') {
            ++pos;
            return true;
        }
        return fail("expected ',' or '}'");
    }
}

bool
Parser::parseValue(JsonValue &out, int depth)
{
    if (depth >= maxDepth)
        return fail("nesting deeper than " + std::to_string(maxDepth));
    skipSpace();
    if (atEnd())
        return fail("unexpected end of input");
    switch (peek()) {
    case '{': return parseObject(out, depth + 1);
    case '[': return parseArray(out, depth + 1);
    case '"':
        out.kind = JsonValue::Kind::String;
        return parseString(out.string);
    case 't':
        out.kind = JsonValue::Kind::Bool;
        out.boolean = true;
        return literal("true");
    case 'f':
        out.kind = JsonValue::Kind::Bool;
        out.boolean = false;
        return literal("false");
    case 'n': out.kind = JsonValue::Kind::Null; return literal("null");
    default: return parseNumber(out);
    }
}

} // namespace

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &member : object) {
        if (member.first == key)
            return &member.second;
    }
    return nullptr;
}

bool
JsonValue::asU64(std::uint64_t &out) const
{
    if (kind != Kind::Number || number.empty())
        return false;
    // Integral token only: no sign, fraction or exponent, so a seed
    // never silently loses precision through a double.
    for (const char c : number) {
        if (c < '0' || c > '9')
            return false;
    }
    const char *end = number.data() + number.size();
    const auto res = std::from_chars(number.data(), end, out);
    return res.ec == std::errc() && res.ptr == end;
}

bool
JsonValue::asReal(double &out) const
{
    if (kind != Kind::Number || number.empty())
        return false;
    const char *end = number.data() + number.size();
    const auto res = std::from_chars(number.data(), end, out);
    return res.ec == std::errc() && res.ptr == end &&
        std::isfinite(out);
}

bool
parseJson(std::string_view text, JsonValue &out, std::string &error)
{
    Parser parser;
    parser.text = text;
    if (!parser.parseValue(out, 0)) {
        error = parser.error;
        return false;
    }
    parser.skipSpace();
    if (!parser.atEnd()) {
        parser.fail("trailing content after document");
        error = parser.error;
        return false;
    }
    return true;
}

void
appendJsonString(std::string &out, std::string_view s)
{
    out.push_back('"');
    for (const char raw : s) {
        const unsigned char c = static_cast<unsigned char>(raw);
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (c < 0x20) {
                static const char digits[] = "0123456789abcdef";
                out += "\\u00";
                out.push_back(digits[c >> 4]);
                out.push_back(digits[c & 0xf]);
            } else {
                out.push_back(raw);
            }
        }
    }
    out.push_back('"');
}

void
appendJsonU64(std::string &out, std::uint64_t v)
{
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, res.ptr);
}

void
appendJsonReal(std::string &out, double v)
{
    fatalIf(!std::isfinite(v),
            "json: non-finite number has no JSON encoding");
    char buf[48];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, res.ptr);
}

std::string
writeJson(const JsonValue &value)
{
    std::string out;
    const auto write = [&out](const JsonValue &v,
                              const auto &self) -> void {
        switch (v.kind) {
        case JsonValue::Kind::Null: out += "null"; break;
        case JsonValue::Kind::Bool:
            out += v.boolean ? "true" : "false";
            break;
        case JsonValue::Kind::Number: out += v.number; break;
        case JsonValue::Kind::String:
            appendJsonString(out, v.string);
            break;
        case JsonValue::Kind::Array: {
            out.push_back('[');
            bool first = true;
            for (const JsonValue &element : v.array) {
                if (!first)
                    out.push_back(',');
                first = false;
                self(element, self);
            }
            out.push_back(']');
            break;
        }
        case JsonValue::Kind::Object: {
            out.push_back('{');
            bool first = true;
            for (const auto &member : v.object) {
                if (!first)
                    out.push_back(',');
                first = false;
                appendJsonString(out, member.first);
                out.push_back(':');
                self(member.second, self);
            }
            out.push_back('}');
            break;
        }
        }
    };
    write(value, write);
    return out;
}

} // namespace oma
