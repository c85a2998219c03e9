#include "sim/json.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <ostream>

#include "sim/logging.hh"

namespace pva::json
{

const Value *
Value::find(const std::string &key) const
{
    if (valueKind != Kind::Object)
        return nullptr;
    for (const auto &[name, value] : members) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

std::uint64_t
Value::asU64(bool &ok) const
{
    if (valueKind != Kind::Number || text.empty() || text[0] == '-') {
        ok = false;
        return 0;
    }
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || end != text.c_str() + text.size()) {
        ok = false;
        return 0;
    }
    return v;
}

double
Value::asDouble(bool &ok) const
{
    if (valueKind != Kind::Number) {
        ok = false;
        return 0.0;
    }
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (errno != 0 || end != text.c_str() + text.size()) {
        ok = false;
        return 0.0;
    }
    return v;
}

/** Recursive-descent parser over the input string (see json.hh). */
class Parser
{
  public:
    Parser(const std::string &input, std::string &error)
        : in(input), err(error)
    {
    }

    bool
    parseDocument(Value &out)
    {
        skipWs();
        if (!parseValue(out, 0))
            return false;
        skipWs();
        if (pos != in.size())
            return fail("trailing content after JSON document");
        return true;
    }

  private:
    /** Nested containers deeper than this indicate corruption, not a
     *  legitimate capsule or scenario (their depth is ~4). */
    static constexpr unsigned kMaxDepth = 64;

    bool
    fail(const std::string &what)
    {
        err = what + " at offset " + std::to_string(pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < in.size() &&
               (in[pos] == ' ' || in[pos] == '\t' || in[pos] == '\n' ||
                in[pos] == '\r')) {
            ++pos;
        }
    }

    bool
    literal(const char *word, std::size_t len)
    {
        if (in.compare(pos, len, word) != 0)
            return fail(std::string("invalid literal (expected ") +
                        word + ")");
        pos += len;
        return true;
    }

    bool
    parseValue(Value &out, unsigned depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        if (pos >= in.size())
            return fail("unexpected end of input");
        switch (in[pos]) {
          case '{':
            return parseObject(out, depth);
          case '[':
            return parseArray(out, depth);
          case '"':
            out.valueKind = Value::Kind::String;
            return parseString(out.text);
          case 't':
            out.valueKind = Value::Kind::Bool;
            out.boolValue = true;
            return literal("true", 4);
          case 'f':
            out.valueKind = Value::Kind::Bool;
            out.boolValue = false;
            return literal("false", 5);
          case 'n':
            out.valueKind = Value::Kind::Null;
            return literal("null", 4);
          default:
            return parseNumber(out);
        }
    }

    bool
    parseObject(Value &out, unsigned depth)
    {
        out.valueKind = Value::Kind::Object;
        ++pos; // '{'
        skipWs();
        if (pos < in.size() && in[pos] == '}') {
            ++pos;
            return true;
        }
        for (;;) {
            skipWs();
            if (pos >= in.size() || in[pos] != '"')
                return fail("expected object key");
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (pos >= in.size() || in[pos] != ':')
                return fail("expected ':' after object key");
            ++pos;
            skipWs();
            Value member;
            if (!parseValue(member, depth + 1))
                return false;
            out.members.emplace_back(std::move(key), std::move(member));
            skipWs();
            if (pos >= in.size())
                return fail("unterminated object");
            if (in[pos] == ',') {
                ++pos;
                continue;
            }
            if (in[pos] == '}') {
                ++pos;
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    parseArray(Value &out, unsigned depth)
    {
        out.valueKind = Value::Kind::Array;
        ++pos; // '['
        skipWs();
        if (pos < in.size() && in[pos] == ']') {
            ++pos;
            return true;
        }
        for (;;) {
            skipWs();
            Value element;
            if (!parseValue(element, depth + 1))
                return false;
            out.elements.push_back(std::move(element));
            skipWs();
            if (pos >= in.size())
                return fail("unterminated array");
            if (in[pos] == ',') {
                ++pos;
                continue;
            }
            if (in[pos] == ']') {
                ++pos;
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    parseString(std::string &out)
    {
        ++pos; // opening '"'
        out.clear();
        while (pos < in.size()) {
            char c = in[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out += c;
                ++pos;
                continue;
            }
            if (pos + 1 >= in.size())
                return fail("unterminated escape");
            const char esc = in[pos + 1];
            pos += 2;
            static constexpr std::string_view coded = "\"\\/bfnrt";
            static constexpr std::string_view raw = "\"\\/\b\f\n\r\t";
            if (const auto k = coded.find(esc); k != coded.npos) {
                out += raw[k];
                continue;
            }
            if (esc != 'u')
                return fail("unknown escape character");
            unsigned code = 0;
            const char *hex = in.data() + pos;
            if (pos + 4 > in.size() ||
                std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4)
                return fail("invalid \\u escape");
            pos += 4;
            // The writer emits hex escapes for control characters
            // only, so basic-plane UTF-8 encoding suffices here.
            if (code < 0x80) {
                out += static_cast<char>(code);
            } else if (code < 0x800) {
                out += static_cast<char>(0xc0 | (code >> 6));
                out += static_cast<char>(0x80 | (code & 0x3f));
            } else {
                out += static_cast<char>(0xe0 | (code >> 12));
                out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
                out += static_cast<char>(0x80 | (code & 0x3f));
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(Value &out)
    {
        std::size_t start = pos;
        if (pos < in.size() && in[pos] == '-')
            ++pos;
        auto digits = [&] {
            std::size_t before = pos;
            while (pos < in.size() &&
                   std::isdigit(static_cast<unsigned char>(in[pos]))) {
                ++pos;
            }
            return pos > before;
        };
        std::size_t int_start = pos;
        if (!digits())
            return fail("invalid number");
        // JSON forbids leading zeros ("01"); octal-looking literals
        // in a capsule are corruption, not a format choice.
        if (in[int_start] == '0' && pos - int_start > 1)
            return fail("invalid number (leading zero)");
        if (pos < in.size() && in[pos] == '.') {
            ++pos;
            if (!digits())
                return fail("invalid number (no fraction digits)");
        }
        if (pos < in.size() && (in[pos] == 'e' || in[pos] == 'E')) {
            ++pos;
            if (pos < in.size() && (in[pos] == '+' || in[pos] == '-'))
                ++pos;
            if (!digits())
                return fail("invalid number (no exponent digits)");
        }
        out.valueKind = Value::Kind::Number;
        out.text = in.substr(start, pos - start);
        return true;
    }

    const std::string &in;
    std::string &err;
    std::size_t pos = 0;
};

bool
parse(const std::string &input, Value &out, std::string &error)
{
    out = Value{};
    error.clear();
    return Parser(input, error).parseDocument(out);
}

namespace
{

/** Append @p s to @p out as a JSON string literal: the one escaper. */
void
appendString(std::string &out, std::string_view s)
{
    static constexpr std::string_view raw = "\"\\\n\r\t", coded = "\"\\nrt";
    out += '"';
    std::size_t run = 0; // start of the pending run of plain bytes
    for (std::size_t i = 0; i < s.size(); ++i) {
        const unsigned char c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s.substr(run, i - run));
        run = i + 1;
        char esc[8];
        if (const auto k = raw.find(s[i]); k != raw.npos)
            std::snprintf(esc, sizeof(esc), "\\%c", coded[k]);
        else
            std::snprintf(esc, sizeof(esc), "\\u%04x", c);
        out += esc;
    }
    out.append(s.substr(run));
    out += '"';
}

} // anonymous namespace

void
Writer::separate()
{
    if (std::exchange(afterKey, false) || frames.empty())
        return;
    Frame &f = frames.back();
    if (!f.empty)
        buf += f.layout == Layout::Block ? "," : ", ";
    if (f.layout == Layout::Block)
        buf.append(1, '\n').append(blockDepth * indentWidth, ' ');
    f.empty = false;
}

Writer &
Writer::flush(bool always)
{
    if (always || frames.empty() || buf.size() >= kFlushBytes) {
        os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
        buf.clear();
    }
    return *this;
}

Writer &
Writer::open(char bracket, char close, Layout layout)
{
    separate();
    buf += bracket;
    frames.push_back({close, layout, true});
    blockDepth += layout == Layout::Block;
    return *this;
}

Writer &
Writer::end()
{
    const Frame f = frames.back();
    frames.pop_back();
    blockDepth -= f.layout == Layout::Block;
    if (f.layout == Layout::Block && !f.empty)
        buf.append(1, '\n').append(blockDepth * indentWidth, ' ');
    buf += f.close;
    return flush();
}

Writer &
Writer::key(std::string_view name)
{
    value(name);
    buf += ": ";
    afterKey = true;
    return *this;
}

Writer &
Writer::value(std::string_view s)
{
    separate();
    appendString(buf, s);
    return flush();
}

Writer &
Writer::number(const char *format, double d)
{
    char text[32];
    std::snprintf(text, sizeof(text), format, d);
    return put(text);
}

Reader::Reader(const Value &v, std::string path, Errors errs)
    : obj(v), where(std::move(path)), errors(std::move(errs))
{
    if (!obj.isObject())
        fail((where.empty() ? "document" : where) + " must be an object");
}

void
Reader::fail(const std::string &detail) const
{
    throw SimError(errors.kind, errors.component, kNeverCycle,
                   errors.prefix + detail);
}

std::string
Reader::keyPath(const char *key) const
{
    return where.empty() ? key : where + "." + key;
}

void
Reader::rejectUnknown(std::initializer_list<const char *> allowed) const
{
    for (const auto &[key, value] : obj.object()) {
        bool known = false;
        for (const char *a : allowed)
            known = known || key == a;
        if (!known) {
            fail(csprintf("unknown key '%s' in %s", key.c_str(),
                          where.empty() ? "document" : where.c_str()));
        }
    }
}

const Value &
Reader::member(const char *key) const
{
    const Value *v = obj.find(key);
    if (!v)
        fail(keyPath(key) + " is required");
    return *v;
}

std::uint64_t
Reader::u64(const char *key) const
{
    bool ok = true;
    std::uint64_t n = member(key).asU64(ok);
    if (!ok)
        fail(keyPath(key) + " must be a non-negative integer");
    return n;
}

unsigned
Reader::u32(const char *key) const
{
    std::uint64_t n = u64(key);
    if (n > 0xffffffffULL)
        fail(keyPath(key) + " must fit in 32 bits");
    return static_cast<unsigned>(n);
}

double
Reader::real(const char *key) const
{
    bool ok = true;
    double d = member(key).asDouble(ok);
    if (!ok)
        fail(keyPath(key) + " must be a number");
    return d;
}

bool
Reader::boolean(const char *key) const
{
    const Value &v = member(key);
    if (!v.isBool())
        fail(keyPath(key) + " must be true or false");
    return v.boolean();
}

std::string
Reader::str(const char *key) const
{
    const Value &v = member(key);
    if (!v.isString())
        fail(keyPath(key) + " must be a string");
    return v.string();
}

Reader
Reader::object(const char *key) const
{
    return Reader(member(key), keyPath(key), errors);
}

std::uint64_t
Reader::u64(const char *key, std::uint64_t fallback) const
{
    return find(key) ? u64(key) : fallback;
}

unsigned
Reader::u32(const char *key, unsigned fallback) const
{
    return find(key) ? u32(key) : fallback;
}

double
Reader::real(const char *key, double fallback) const
{
    return find(key) ? real(key) : fallback;
}

bool
Reader::boolean(const char *key, bool fallback) const
{
    return find(key) ? boolean(key) : fallback;
}

std::string
Reader::str(const char *key, const std::string &fallback) const
{
    return find(key) ? str(key) : fallback;
}

} // namespace pva::json
