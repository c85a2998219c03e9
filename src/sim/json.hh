/**
 * @file
 * A minimal JSON reader for the durability layer.
 *
 * The checkpoint journal (kernels/sweep_journal.hh) and the repro
 * capsules (kernels/repro_capsule.hh) persist simulator state as JSON
 * and must read it back without any external dependency, so this file
 * provides the small recursive-descent parser they share. It parses
 * the full JSON grammar into a Value tree; numbers keep their source
 * text so 64-bit integers (seeds, fingerprints, cycle counts) round
 * trip exactly instead of passing through a double.
 *
 * Reader layers strict typed field access over a parsed object; the
 * journal, the capsules, the SystemConfig codec and the scenario
 * parser all read through it, so every document reports a missing,
 * ill-typed or unknown key the same way.
 *
 * This is a reader for trusted, tool-generated input with clear
 * diagnostics on corruption — not a general-purpose JSON library. The
 * writers stay hand-rolled ostream code as everywhere else in the
 * repo (deterministic byte-for-byte output is part of their contract).
 */

#ifndef PVA_SIM_JSON_HH
#define PVA_SIM_JSON_HH

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "sim/sim_error.hh"

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
    bool isNumber() const { return valueKind == Kind::Number; }
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

/** Escape @p s for embedding inside a JSON string literal (quotes not
 *  included). The writer-side counterpart of parse(). */
std::string escape(const std::string &s);

/** @p s as a JSON string literal: escape() inside double quotes. */
std::string quote(const std::string &s);

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
    /** A string mapped through @p parse (a name table's reverse
     *  lookup); unknown names fail, listing @p hint when given. */
    template <typename E>
    E
    name(const char *key, bool (*parse)(const std::string &, E &),
         const char *hint = nullptr) const
    {
        const std::string text = str(key);
        E out{};
        if (!parse(text, out))
            failUnknownName(key, text, hint);
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
    name(const char *key, bool (*parse)(const std::string &, E &),
         const char *hint, E fallback) const
    {
        return find(key) ? name(key, parse, hint) : fallback;
    }
    /** @} */

    /** Path of @p key below this object ("scenario.shed.deadline"). */
    std::string keyPath(const char *key) const;

  private:
    const Value &member(const char *key) const;
    [[noreturn]] void failUnknownName(const char *key,
                                      const std::string &text,
                                      const char *hint) const;

    const Value &obj;
    std::string where;
    Errors errors;
};

} // namespace pva::json

#endif // PVA_SIM_JSON_HH
