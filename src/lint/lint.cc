/**
 * @file
 * Scanner, suppression parsing and driver for oma_lint.
 */

#include "lint/lint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "support/json.hh"

namespace fs = std::filesystem;

namespace oma::lint
{

namespace
{

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::vector<std::string>
splitLines(std::string_view content)
{
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start <= content.size()) {
        const std::size_t nl = content.find('\n', start);
        if (nl == std::string_view::npos) {
            lines.emplace_back(content.substr(start));
            break;
        }
        lines.emplace_back(content.substr(start, nl - start));
        start = nl + 1;
    }
    return lines;
}

/**
 * Blank comments and string/char literals (preserving column
 * positions) so token scans never fire on prose or literal text.
 * Handles // and block comments, escaped quotes, and multi-line raw
 * strings R"delim(...)delim".
 */
std::vector<std::string>
stripCommentsAndLiterals(const std::vector<std::string> &raw)
{
    enum class State
    {
        Code,
        BlockComment,
        RawString,
    };
    std::vector<std::string> out;
    out.reserve(raw.size());
    State state = State::Code;
    std::string rawTerm; //!< ")delim\"" ending the active raw string.

    for (const std::string &line : raw) {
        std::string code(line.size(), ' ');
        std::size_t i = 0;
        while (i < line.size()) {
            if (state == State::BlockComment) {
                const std::size_t close = line.find("*/", i);
                if (close == std::string::npos) {
                    i = line.size();
                } else {
                    i = close + 2;
                    state = State::Code;
                }
                continue;
            }
            if (state == State::RawString) {
                const std::size_t close = line.find(rawTerm, i);
                if (close == std::string::npos) {
                    i = line.size();
                } else {
                    i = close + rawTerm.size();
                    state = State::Code;
                }
                continue;
            }
            const char c = line[i];
            if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') {
                break; // Rest of the line is a comment.
            }
            if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
                state = State::BlockComment;
                i += 2;
                continue;
            }
            if (c == 'R' && i + 1 < line.size() && line[i + 1] == '"' &&
                (i == 0 || !identChar(line[i - 1]))) {
                const std::size_t open = line.find('(', i + 2);
                if (open != std::string::npos) {
                    rawTerm = ")" + line.substr(i + 2, open - i - 2) + "\"";
                    state = State::RawString;
                    i = open + 1;
                    continue;
                }
            }
            if (c == '"' || c == '\'') {
                const char quote = c;
                ++i;
                while (i < line.size()) {
                    if (line[i] == '\\') {
                        i += 2;
                    } else if (line[i] == quote) {
                        ++i;
                        break;
                    } else {
                        ++i;
                    }
                }
                continue;
            }
            code[i] = c;
            ++i;
        }
        out.push_back(std::move(code));
    }
    return out;
}

std::string
trim(std::string s)
{
    const auto notSpace = [](unsigned char c) { return !std::isspace(c); };
    s.erase(s.begin(), std::find_if(s.begin(), s.end(), notSpace));
    s.erase(std::find_if(s.rbegin(), s.rend(), notSpace).base(), s.end());
    return s;
}

/**
 * Parse every `oma-lint: allow(...)` / `allow-file(...)` directive on
 * @p line. The text after the closing paren (minus a leading ':' or
 * '-') is the stated reason.
 */
void
parseDirectives(const std::string &line,
                std::vector<Allowance> &line_allows,
                std::vector<Allowance> &file_allows)
{
    static const std::string marker = "oma-lint:";
    std::size_t pos = 0;
    while ((pos = line.find(marker, pos)) != std::string::npos) {
        std::size_t p = pos + marker.size();
        while (p < line.size() &&
               std::isspace(static_cast<unsigned char>(line[p])))
            ++p;
        bool file_scope = false;
        if (line.compare(p, 11, "allow-file(") == 0) {
            file_scope = true;
            p += 11;
        } else if (line.compare(p, 6, "allow(") == 0) {
            p += 6;
        } else {
            pos += marker.size();
            continue;
        }
        const std::size_t close = line.find(')', p);
        if (close == std::string::npos)
            break;
        Allowance allow;
        std::stringstream rules(line.substr(p, close - p));
        std::string rule;
        while (std::getline(rules, rule, ','))
            allow.rules.insert(trim(rule));
        std::string reason = trim(line.substr(close + 1));
        if (!reason.empty() && (reason[0] == ':' || reason[0] == '-'))
            reason = trim(reason.substr(1));
        allow.reason = reason;
        (file_scope ? file_allows : line_allows).push_back(allow);
        pos = close + 1;
    }
}

bool
covers(const Allowance &allow, const std::string &rule, bool need_reason)
{
    return allow.rules.count(rule) != 0 &&
        (!need_reason || !allow.reason.empty());
}

/**
 * Extract names declared with std::unordered_map/set in @p code
 * (comment/literal-stripped lines): after the container token, skip
 * the template argument list (bracket matching, across lines), then
 * take the next identifier as the declared name.
 */
void
collectUnorderedNames(const std::vector<std::string> &code,
                      std::vector<std::string> &names)
{
    // Flatten so template argument lists can span lines.
    std::string flat;
    for (const std::string &line : code) {
        flat += line;
        flat += ' ';
    }
    std::size_t pos = 0;
    while (pos < flat.size()) {
        std::size_t hit = flat.find("unordered_", pos);
        if (hit == std::string::npos)
            break;
        if (hit > 0 && identChar(flat[hit - 1])) {
            pos = hit + 10;
            continue;
        }
        std::size_t p = hit + 10;
        if (flat.compare(p, 3, "map") == 0)
            p += 3;
        else if (flat.compare(p, 3, "set") == 0)
            p += 3;
        else {
            pos = hit + 10;
            continue;
        }
        pos = p;
        while (p < flat.size() &&
               std::isspace(static_cast<unsigned char>(flat[p])))
            ++p;
        if (p >= flat.size() || flat[p] != '<')
            continue;
        int depth = 0;
        while (p < flat.size()) {
            if (flat[p] == '<')
                ++depth;
            else if (flat[p] == '>' && --depth == 0) {
                ++p;
                break;
            }
            ++p;
        }
        // Skip references, pointers and whitespace before the name.
        while (p < flat.size() &&
               (std::isspace(static_cast<unsigned char>(flat[p])) ||
                flat[p] == '&' || flat[p] == '*'))
            ++p;
        std::size_t nameEnd = p;
        while (nameEnd < flat.size() && identChar(flat[nameEnd]))
            ++nameEnd;
        if (nameEnd > p)
            names.emplace_back(flat.substr(p, nameEnd - p));
        pos = nameEnd;
    }
}

/** First-level project includes (`#include "x/y.hh"`) of @p code. */
std::vector<std::string>
projectIncludes(const std::vector<std::string> &raw)
{
    std::vector<std::string> includes;
    for (const std::string &line : raw) {
        std::size_t p = line.find_first_not_of(" \t");
        if (p == std::string::npos || line[p] != '#')
            continue;
        p = line.find("include", p);
        if (p == std::string::npos)
            continue;
        const std::size_t open = line.find('"', p);
        if (open == std::string::npos)
            continue;
        const std::size_t close = line.find('"', open + 1);
        if (close == std::string::npos)
            continue;
        includes.push_back(line.substr(open + 1, close - open - 1));
    }
    return includes;
}

bool
isSourceFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".hh" || ext == ".hpp" || ext == ".cc" ||
        ext == ".cpp" || ext == ".cxx";
}

bool
isSkippedDir(const fs::path &p)
{
    const std::string name = p.filename().string();
    return name == ".git" || name.rfind("build", 0) == 0 ||
        name == "header_tus";
}

void
collectFiles(const fs::path &p, std::vector<std::string> &files)
{
    if (fs::is_directory(p)) {
        if (isSkippedDir(p))
            return;
        std::vector<fs::path> entries;
        for (const auto &entry : fs::directory_iterator(p))
            entries.push_back(entry.path());
        std::sort(entries.begin(), entries.end());
        for (const fs::path &entry : entries)
            collectFiles(entry, files);
    } else if (fs::is_regular_file(p) && isSourceFile(p)) {
        files.push_back(p.string());
    }
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
}

void
lintOne(const SourceFile &file,
        const std::vector<std::unique_ptr<Rule>> &rules,
        LintReport &report)
{
    ++report.filesScanned;
    std::vector<Finding> found;
    for (const auto &rule : rules)
        rule->check(file, found);
    for (Finding &f : found) {
        if (!file.allowed(f.rule, f.line, f.requiresReason))
            report.findings.push_back(std::move(f));
    }
}

} // namespace

SourceFile::SourceFile(std::string path, std::string_view content,
                       std::string include_root)
    : _path(std::move(path)), _includeRoot(std::move(include_root)),
      _raw(splitLines(content)), _code(stripCommentsAndLiterals(_raw))
{
    for (std::size_t i = 0; i < _raw.size(); ++i) {
        std::vector<Allowance> line_allows;
        parseDirectives(_raw[i], line_allows, _fileAllows);
        if (!line_allows.empty())
            _lineAllows.emplace(i + 1, std::move(line_allows));
    }
}

bool
SourceFile::isHeader() const
{
    return fs::path(_path).extension() == ".hh" ||
        fs::path(_path).extension() == ".hpp";
}

const std::string &
SourceFile::rawLine(std::size_t line) const
{
    return _raw.at(line - 1);
}

const std::string &
SourceFile::codeLine(std::size_t line) const
{
    return _code.at(line - 1);
}

bool
SourceFile::allowed(const std::string &rule, std::size_t line,
                    bool need_reason) const
{
    for (const Allowance &allow : _fileAllows) {
        if (covers(allow, rule, need_reason))
            return true;
    }
    const auto checkLine = [&](std::size_t l) {
        const auto it = _lineAllows.find(l);
        if (it == _lineAllows.end())
            return false;
        for (const Allowance &allow : it->second) {
            if (covers(allow, rule, need_reason))
                return true;
        }
        return false;
    };
    if (checkLine(line))
        return true;
    // Walk the contiguous //-comment block above the flagged line, so
    // a directive whose justification wraps still covers it.
    for (std::size_t l = line; l > 1; --l) {
        const std::string &above = _raw[l - 2];
        const std::size_t text = above.find_first_not_of(" \t");
        if (text == std::string::npos ||
            above.compare(text, 2, "//") != 0)
            break;
        if (checkLine(l - 1))
            return true;
    }
    return false;
}

std::vector<std::string>
SourceFile::unorderedNames() const
{
    std::vector<std::string> names;
    collectUnorderedNames(_code, names);
    if (!_includeRoot.empty()) {
        for (const std::string &inc : projectIncludes(_raw)) {
            const fs::path header = fs::path(_includeRoot) / inc;
            std::error_code ec;
            if (!fs::is_regular_file(header, ec))
                continue;
            const auto lines = splitLines(readFile(header.string()));
            collectUnorderedNames(stripCommentsAndLiterals(lines),
                                  names);
        }
    }
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    return names;
}

LintReport
lintBuffer(const std::string &path, std::string_view content,
           const std::string &include_root)
{
    const auto rules = makeDefaultRules();
    LintReport report;
    lintOne(SourceFile(path, content, include_root), rules, report);
    return report;
}

LintReport
lintPaths(const std::vector<std::string> &paths,
          const std::string &include_root)
{
    std::vector<std::string> files;
    for (const std::string &p : paths)
        collectFiles(fs::path(p), files);
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    const auto rules = makeDefaultRules();
    LintReport report;
    for (const std::string &path : files)
        lintOne(SourceFile(path, readFile(path), include_root), rules,
                report);
    std::stable_sort(report.findings.begin(), report.findings.end(),
                     [](const Finding &a, const Finding &b) {
                         if (a.file != b.file)
                             return a.file < b.file;
                         if (a.line != b.line)
                             return a.line < b.line;
                         return a.rule < b.rule;
                     });
    return report;
}

void
printReport(const LintReport &report, bool fixits, std::ostream &os)
{
    for (const Finding &f : report.findings) {
        os << f.file << ":" << f.line << ": [" << f.rule << "] "
           << f.message << "\n";
        if (fixits && !f.fixit.empty())
            os << "    fixit: " << f.fixit << "\n";
    }
    os << (report.clean() ? "oma_lint: clean, "
                          : "oma_lint: FAILED, ")
       << report.findings.size() << " finding(s) in "
       << report.filesScanned << " file(s)\n";
}

void
printSarif(const LintReport &report, std::ostream &os)
{
    std::string out = "{\n"
                      "  \"$schema\": "
                      "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
                      "  \"version\": \"2.1.0\",\n"
                      "  \"runs\": [\n"
                      "    {\n"
                      "      \"tool\": {\n"
                      "        \"driver\": {\n"
                      "          \"name\": \"oma_lint\",\n"
                      "          \"informationUri\": "
                      "\"docs/STATIC_ANALYSIS.md\",\n"
                      "          \"rules\": [\n";
    const auto rules = makeDefaultRules();
    for (std::size_t i = 0; i < rules.size(); ++i) {
        out += "            {\n              \"id\": ";
        appendJsonString(out, rules[i]->name());
        out += ",\n              \"shortDescription\": {\"text\": ";
        appendJsonString(out, rules[i]->rationale());
        out += "}\n            }";
        out += i + 1 < rules.size() ? ",\n" : "\n";
    }
    out += "          ]\n"
           "        }\n"
           "      },\n"
           "      \"results\": [\n";
    const auto &findings = report.findings;
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        std::string text = f.message;
        if (!f.fixit.empty())
            text += "; fix: " + f.fixit;
        out += "        {\n          \"ruleId\": ";
        appendJsonString(out, f.rule);
        out += ",\n          \"level\": \"error\",\n"
               "          \"message\": {\"text\": ";
        appendJsonString(out, text);
        out += "},\n"
               "          \"locations\": [\n"
               "            {\n"
               "              \"physicalLocation\": {\n"
               "                \"artifactLocation\": {\"uri\": ";
        appendJsonString(out, f.file);
        out += "},\n                \"region\": {\"startLine\": ";
        appendJsonU64(out, f.line == 0 ? 1 : f.line);
        out += "}\n"
               "              }\n"
               "            }\n"
               "          ]\n"
               "        }";
        out += i + 1 < findings.size() ? ",\n" : "\n";
    }
    out += "      ]\n"
           "    }\n"
           "  ]\n"
           "}\n";
    os << out;
}

std::vector<std::string>
emitHeaderTus(const std::string &src_root, const std::string &out_dir)
{
    std::vector<std::string> headers;
    for (const auto &entry : fs::recursive_directory_iterator(src_root)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".hh") {
            headers.push_back(
                fs::relative(entry.path(), src_root).generic_string());
        }
    }
    std::sort(headers.begin(), headers.end());

    fs::create_directories(out_dir);
    std::vector<std::string> tus;
    std::ofstream manifest(fs::path(out_dir) / "manifest.txt",
                           std::ios::trunc);
    for (const std::string &header : headers) {
        std::string stem = header;
        std::replace(stem.begin(), stem.end(), '/', '_');
        stem.replace(stem.size() - 3, 3, ".tu.cc");
        const fs::path tu = fs::path(out_dir) / stem;
        std::ofstream out(tu, std::ios::trunc);
        out << "// Generated by oma_lint --emit-header-tus; do not"
               " edit.\n"
            << "// Compiles standalone iff \"" << header
            << "\" is self-contained.\n"
            << "#include \"" << header << "\"\n";
        manifest << tu.generic_string() << "\n";
        tus.push_back(tu.string());
    }
    return tus;
}

} // namespace oma::lint
