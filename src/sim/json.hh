/**
 * @file
 * The simulator's JSON codec: one reader and one writer.
 *
 * Every document the simulator persists or reports is JSON: the repro
 * capsules (kernels/repro_capsule.hh), the SystemConfig codec, fleet
 * scenarios, the tools' --json envelope, stat dumps, traffic and
 * fleet results and the Perfetto export. All of them are read and written here,
 * without any external dependency.
 *
 * parse() is a small recursive-descent parser over the full JSON
 * grammar into a Value tree; numbers keep their source text so 64-bit
 * integers (seeds, fingerprints, cycle counts) round trip exactly
 * instead of passing through a double. Reader layers strict typed
 * field access over a parsed object, so every document reports a
 * missing, ill-typed or unknown key the same way.
 *
 * Writer streams a document to a std::ostream without building a
 * tree. It alone escapes strings, places separators and line breaks,
 * and formats numbers, so the byte-for-byte output every golden and
 * fingerprint depends on is decided in one file.
 *
 * This is a codec for trusted, tool-generated documents with clear
 * diagnostics on corruption — not a general-purpose JSON library.
 */

#ifndef PVA_SIM_JSON_HH
#define PVA_SIM_JSON_HH

#include <charconv>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/sim_error.hh"
#include "sim/vocabulary.hh"

namespace pva::json
{

/** One parsed JSON value (a tree; object keys keep source order). */
class Value
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind() const { return valueKind; }
    bool isNull() const { return valueKind == Kind::Null; }
    bool isBool() const { return valueKind == Kind::Bool; }
    bool isString() const { return valueKind == Kind::String; }
    bool isArray() const { return valueKind == Kind::Array; }
    bool isObject() const { return valueKind == Kind::Object; }

    /** @name Typed access (meaningful only for the matching kind) @{ */
    bool boolean() const { return boolValue; }
    /** The number's source text, e.g. "50000000" or "1e-3". */
    const std::string &numberText() const { return text; }
    const std::string &string() const { return text; }
    const std::vector<Value> &array() const { return elements; }
    const std::vector<std::pair<std::string, Value>> &object() const
    {
        return members;
    }
    /** @} */

    /** Object member lookup; nullptr when absent (or not an object). */
    const Value *find(const std::string &key) const;

    /** @name Number conversions
     * Valid only for Kind::Number (asU64 additionally requires a
     * non-negative integer literal); @p ok is cleared on failure and
     * left untouched on success, so one flag can guard a whole
     * extraction sequence. @{ */
    std::uint64_t asU64(bool &ok) const;
    double asDouble(bool &ok) const;
    /** @} */

  private:
    friend class Parser;

    Kind valueKind = Kind::Null;
    bool boolValue = false;
    std::string text; ///< Number source text or string payload
    std::vector<Value> elements;
    std::vector<std::pair<std::string, Value>> members;
};

/**
 * Parse @p input as one JSON document. Trailing non-whitespace after
 * the document, like any grammar violation, fails the parse.
 *
 * @return true on success (@p out holds the document); false with a
 *         one-line position-annotated message in @p error otherwise.
 */
bool parse(const std::string &input, Value &out, std::string &error);

/**
 * Streaming JSON writer, the counterpart of parse(). The writer alone
 * escapes strings (keys included), places separators and line breaks,
 * and formats numbers. It buffers its text and writes it to the stream
 * once the top-level value is complete, when nested() hands the stream
 * out, and every kFlushBytes in between.
 *
 * Layout is per container. Inline keeps its members on the current
 * line: {"a": 1, "b": [2, 3]}. Block puts each member on a line of its
 * own, indented @p indent spaces per open Block container, and closes
 * on a line of its own ("[]" when empty).
 *
 * Integers print exactly. value(double) prints as a default
 * std::ostream does, six significant digits (reported rates and
 * means); exact(double) prints %.17g, which reads back bit for bit.
 */
class Writer
{
  public:
    enum class Layout { Inline, Block };

    explicit Writer(std::ostream &out, unsigned indent = 2)
        : os(out), indentWidth(indent) {}

    Writer &beginObject(Layout l = Layout::Inline) { return open('{', '}', l); }
    Writer &beginArray(Layout l = Layout::Inline) { return open('[', ']', l); }
    /** Close the innermost open object or array. */
    Writer &end();
    /** Start member @p name; the next call writes its value. */
    Writer &key(std::string_view name);

    Writer &value(std::string_view s);
    Writer &value(const char *s) { return value(std::string_view(s)); }
    Writer &value(bool b) { return put(b ? "true" : "false"); }
    Writer &value(double d) { return number("%g", d); }
    Writer &exact(double d) { return number("%.17g", d); }
    template <typename T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
    Writer &value(T n)
    {
        char digits[24];
        return put({digits, std::to_chars(digits, digits + 24, n).ptr});
    }

    /** key(@p name).value(@p v) */
    template <typename T>
    Writer &field(std::string_view name, const T &v)
    {
        return key(name).value(v);
    }

    /** Place the next value and hand back the stream for another
     *  Writer to write it (a nested document, such as a stat dump). */
    std::ostream &nested() { separate(); flush(true); return os; }
    /** End the line after the last value written. */
    Writer &newline() { buf += '\n'; return flush(); }

  private:
    struct Frame { char close; Layout layout; bool empty; };
    static constexpr std::size_t kFlushBytes = 1 << 14;

    Writer &open(char bracket, char close, Layout layout);
    /** The next value, verbatim. */
    Writer &
    put(std::string_view text)
    {
        separate();
        buf += text;
        return flush();
    }
    Writer &number(const char *format, double d);
    void separate();
    /** Write the buffer out when @p always, at the top level, or once
     *  it holds kFlushBytes. */
    Writer &flush(bool always = false);

    std::ostream &os;
    unsigned indentWidth;
    unsigned blockDepth = 0;
    bool afterKey = false;
    std::vector<Frame> frames;
    std::string buf; ///< Text not yet written to os
};

/**
 * Strict typed reads over one JSON object. Required reads fail on a
 * missing key, defaulted reads return the fallback, any present value
 * of the wrong type fails, and rejectUnknown() fails on keys outside
 * the caller's list. Every failure throws SimError(Errors::kind) from
 * Errors::component with Errors::prefix prepended, naming the key by
 * its path from the document root ("scenario.tenants[0].count must
 * be a non-negative integer").
 */
class Reader
{
  public:
    /** Who reports this document's errors, and how. */
    struct Errors
    {
        std::string component; ///< SimError component, e.g. "capsule"
        std::string prefix;    ///< Prepended to every message
        SimErrorKind kind = SimErrorKind::Config;
    };

    /** Read @p v, which must be an object, found at @p path (empty for
     *  a document root whose keys need no qualifier). */
    Reader(const Value &v, std::string path, Errors errors);

    /** Throw this document's SimError with @p detail. */
    [[noreturn]] void fail(const std::string &detail) const;

    /** Fail on the first key not in @p allowed. */
    void rejectUnknown(std::initializer_list<const char *> allowed) const;

    /** The member @p key, or nullptr when absent. */
    const Value *find(const char *key) const { return obj.find(key); }

    /** @name Required reads (fail when @p key is absent) @{ */
    std::uint64_t u64(const char *key) const;
    unsigned u32(const char *key) const;
    double real(const char *key) const;
    bool boolean(const char *key) const;
    std::string str(const char *key) const;
    Reader object(const char *key) const;
    /** A string that names a value of @p vocab; an unknown name fails
     *  with the table's refusal, listing every name in order. */
    template <typename E>
    E
    name(const char *key, const Vocabulary<E> &vocab) const
    {
        const std::string text = str(key);
        E out{};
        if (!vocab.parse(text, out))
            fail(vocab.unknown(keyPath(key), text));
        return out;
    }
    /** @} */

    /** @name Defaulted reads (@p fallback when @p key is absent) @{ */
    std::uint64_t u64(const char *key, std::uint64_t fallback) const;
    unsigned u32(const char *key, unsigned fallback) const;
    double real(const char *key, double fallback) const;
    bool boolean(const char *key, bool fallback) const;
    std::string str(const char *key, const std::string &fallback) const;
    template <typename E>
    E
    name(const char *key, const Vocabulary<E> &vocab, E fallback) const
    {
        return find(key) ? name(key, vocab) : fallback;
    }
    /** @} */

    /** Path of @p key below this object ("scenario.shed.deadline"). */
    std::string keyPath(const char *key) const;

  private:
    const Value &member(const char *key) const;

    const Value &obj;
    std::string where;
    Errors errors;
};

} // namespace pva::json

#endif // PVA_SIM_JSON_HH
