/**
 * @file
 * Name tables of the enums a user types (docs/API.md, "Names").
 *
 * A Vocabulary<E> is one ordered table of an enum's values and their
 * spellings, kept beside the enum. Everything that spells those names
 * derives from it: the enum's name function and all*() list, the
 * tools' metavars ("legacy|salp|deferred") and refusals, and
 * json::Reader's hints. It is also the one place the two refusal
 * shapes are spelled, listing the names in table order:
 *
 *   CLI:   --policy expects 'fifo', 'rr' or 'priority', got 'lottery'
 *   JSON:  unknown scenario.clocking 'warp' (try: exhaustive event)
 *
 * Lookups scan the table; no hot path reads one.
 */

#ifndef PVA_SIM_VOCABULARY_HH
#define PVA_SIM_VOCABULARY_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace pva
{

/** One enum's values and their spellings in one ordered table. */
template <typename E>
class Vocabulary
{
  public:
    struct Entry
    {
        E value;
        std::string name;
    };

    explicit Vocabulary(std::vector<Entry> entries)
        : table(std::move(entries))
    {
        for (const Entry &e : table)
            vals.push_back(e.value);
    }

    /** The spelling of @p value ("?" for a value outside the table). */
    const char *
    name(E value) const
    {
        for (const Entry &e : table) {
            if (e.value == value)
                return e.name.c_str();
        }
        return "?";
    }

    /** The value spelled exactly @p text; false (and @p out untouched)
     *  when no entry is. */
    bool
    parse(const std::string &text, E &out) const
    {
        for (const Entry &e : table) {
            if (e.name == text) {
                out = e.value;
                return true;
            }
        }
        return false;
    }

    /** Every value, in table order. */
    const std::vector<E> &values() const { return vals; }

    /** The spellings in table order, joined by @p sep. */
    std::string
    joined(const char *sep) const
    {
        std::string out;
        for (std::size_t i = 0; i < table.size(); ++i)
            out += (i > 0 ? sep : "") + table[i].name;
        return out;
    }

    /** The CLI refusal: "FLAG expects 'a', 'b' or 'c', got 'TEXT'". */
    std::string
    expects(const std::string &flag, const std::string &text) const
    {
        std::string list;
        for (std::size_t i = 0; i < table.size(); ++i) {
            if (i > 0)
                list += i + 1 == table.size() ? " or " : ", ";
            list += "'" + table[i].name + "'";
        }
        return flag + " expects " + list + ", got '" + text + "'";
    }

    /** The JSON refusal: "unknown PATH 'TEXT' (try: a b c)". */
    std::string
    unknown(const std::string &path, const std::string &text) const
    {
        return "unknown " + path + " '" + text + "' (try: " + joined(" ") +
               ")";
    }

  private:
    std::vector<Entry> table;
    std::vector<E> vals;
};

} // namespace pva

#endif // PVA_SIM_VOCABULARY_HH
