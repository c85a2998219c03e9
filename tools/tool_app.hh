/**
 * @file
 * Shared application layer for the pva command-line tools.
 *
 * ToolApp is a declarative flag parser: each tool registers its flags
 * (name, metavar, help, handler) once, and the common flag sets —
 * system construction (--banks/--vcs/--row-policy/--refresh/
 * --clocking/--check/--fault-*), workload selection, executor knobs,
 * output selection (--stats/--json) and tracing (--trace-out/
 * --trace-filter/--trace-buffer) — come from one place, so pva_sim,
 * pva_replay and pva_loadgen accept the same vocabulary with the same
 * validation and the same generated usage text.
 *
 * run() wraps the tool body in the standard SimError/exception
 * handler and, when --trace-out was given (and tracing is compiled
 * in, see sim/trace.hh), opens a TraceSession around the body and
 * exports the Chrome trace JSON afterwards.
 *
 * JsonEnvelope implements the versioned JSON output API of
 * docs/API.md: every tool's --json output is one object of the form
 *   {"schemaVersion": 1, "tool": "...", "config": {...}, <sections>}
 * so downstream scripts parse a single shape across tools.
 */

#ifndef PVA_TOOLS_TOOL_APP_HH
#define PVA_TOOLS_TOOL_APP_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "core/system_config.hh"
#include "options.hh"
#include "sim/json.hh"

namespace pva::tools
{

/** Version of the JSON output API every tool emits (docs/API.md). */
constexpr int kJsonSchemaVersion = 1;

/** The value @p text names in @p vocab; fatal with the table's CLI
 *  refusal (Vocabulary::expects) for @p flag otherwise. */
template <typename E>
E
parseChoice(const Vocabulary<E> &vocab, const char *flag,
            const std::string &text)
{
    E out{};
    if (!vocab.parse(text, out))
        fatal("%s", vocab.expects(flag, text).c_str());
    return out;
}

/** The shared --trace-* flag values. */
struct TraceOptions
{
    std::string outPath; ///< --trace-out; empty = tracing inactive
    std::string filter;  ///< --trace-filter component glob(s)
    std::size_t bufferCap = 1u << 19; ///< --trace-buffer (events)
    /** --profile / --profile-period: sampling period (0 = off). */
    std::uint32_t profilePeriod = 0;

    bool active() const { return !outPath.empty(); }
    bool profiling() const { return profilePeriod != 0; }
};

/** Declarative flag parser + tool lifecycle (see file comment). */
class ToolApp
{
  public:
    explicit ToolApp(std::string tool_name);
    ~ToolApp();

    /** @name Flag registration
     * Handlers run during parse(), in command-line order. @{ */
    /** A value-less switch, e.g. --check. */
    void flag(const char *name, const char *help,
              std::function<void()> handler);
    /** A string-valued option, e.g. --trace-out FILE. */
    void option(const char *name, std::string metavar, std::string help,
                std::function<void(const std::string &)> handler);
    /** A name from @p vocab, parsed into @p dest at flag time (fatal
     *  with the table's refusal on any other text). The metavar is
     *  the names joined by '|' unless @p metavar is given. */
    template <typename E>
    void
    choice(const char *name, std::string help, const Vocabulary<E> &vocab,
           E &dest, const char *metavar = nullptr)
    {
        option(name, metavar ? metavar : vocab.joined("|"), std::move(help),
               [name, &vocab, &dest](const std::string &v) {
                   dest = parseChoice(vocab, name, v);
               });
    }
    /** An unsigned-integer option; fatal unless the value is a
     *  number in @p min..@p max, where @p max is the largest value
     *  the handler's destination can hold. */
    void numOption(const char *name, const char *metavar,
                   const char *help, unsigned long long min,
                   unsigned long long max,
                   std::function<void(unsigned long long)> handler);
    /** An unsigned-integer option stored into @p dest, bounded by
     *  its type. */
    template <typename T>
    void
    numOption(const char *name, const char *metavar, const char *help,
              T &dest)
    {
        static_assert(std::is_unsigned_v<T>);
        numOption(name, metavar, help, 0, std::numeric_limits<T>::max(),
                  [&dest](unsigned long long n) {
                      dest = static_cast<T>(n);
                  });
    }
    /** A real-valued option; fatal on a non-numeric value. */
    void realOption(const char *name, const char *metavar,
                    const char *help,
                    std::function<void(double)> handler);
    /** Accept one bare (non-flag) argument, e.g. a trace file path. */
    void positional(const char *metavar,
                    std::function<void(const std::string &)> handler);
    /** @} */

    /** @name Common flag sets @{ */
    /** --banks/--interleave/--vcs/--row-policy/--refresh/--clocking/
     *  --check/--fault-*; config is validated after parsing. */
    void addSystemFlags(SystemConfig &config);
    /** --kernel/--stride/--alignment/--system/--elements. */
    void addWorkloadFlags(ToolOptions &opts);
    /** --system: the memory system under test. */
    void addSystemKindFlag(SystemKind &system);
    /** --jobs/--retries/--point-timeout. */
    void addExecutorFlags(unsigned &jobs, unsigned &retries,
                          double &point_timeout);
    /** --stats/--json. */
    void addOutputFlags(bool &stats, bool &json);
    /** --trace-out/--trace-filter/--trace-buffer/--profile/
     *  --profile-period. */
    void addTraceFlags();
    /** @} */

    /**
     * Parse argv. An unknown flag (or a missing value) is named before
     * the generated usage text, and the tool exits 2. Any SystemConfig
     * registered via addSystemFlags() is validated afterwards.
     */
    void parse(int argc, char **argv);

    /** Print "<tool>: @p problem" when given, then the generated
     *  usage text, and exit(2). */
    [[noreturn]] void usage(const std::string &problem = "") const;

    const std::string &toolName() const { return name; }
    const TraceOptions &traceOptions() const { return trace; }
    /** The flags parse() applied, in command-line order. */
    const std::vector<std::string> &givenFlags() const { return given; }

    /**
     * Run the tool body under the standard try/catch (SimError and
     * std::exception exit 1 with a one-line diagnostic) and the trace
     * session lifecycle: when --trace-out is set, a TraceSession is
     * installed before @p body and the Chrome trace JSON is written
     * after it. The event/drop summary and the --profile rows go to
     * stderr, unless --json was given: then the envelope's trace
     * section (JsonEnvelope::traceSection) carries them. In a build
     * without PVA_TRACE, --trace-out is a fatal error instead of a
     * silent no-op.
     */
    int run(const std::function<int()> &body);

    /** Write the trace accounting object: out path, recorded/dropped
     *  events and tracks of the live session (0 when none), and the
     *  top --profile rows. */
    void dumpTraceJson(json::Writer &w) const;

  private:
    struct Spec
    {
        std::string name;    ///< Including leading dashes
        std::string metavar; ///< Empty for value-less switches
        std::string help;
        std::function<void(const std::string &value)> apply;
        bool takesValue = false;
    };

    const Spec *find(const std::string &flag) const;

    std::string name;
    std::vector<Spec> specs;
    std::vector<std::string> given;
    std::string positionalMetavar;
    std::function<void(const std::string &)> positionalHandler;
    SystemConfig *configToValidate = nullptr;
    const bool *jsonFlag = nullptr; ///< addOutputFlags' --json
    TraceOptions trace;
    bool traceFlagsAdded = false;

    struct TraceState; ///< Hides the session type from untraced builds
    std::unique_ptr<TraceState> traceState;
};

/**
 * Versioned JSON envelope (docs/API.md). The constructor opens the
 * object and writes schemaVersion/tool/config; section() starts a
 * member and hands back the envelope's writer for its value; the
 * destructor closes the object.
 */
class JsonEnvelope
{
  public:
    /** An extra "config" member: a string or an unsigned number. */
    using ConfigExtra =
        std::pair<const char *, std::variant<std::string, std::uint64_t>>;

    /** @param config_extras  members appended to the "config" object. */
    JsonEnvelope(std::ostream &os, const ToolApp &app,
                 const SystemConfig &config,
                 const std::vector<ConfigExtra> &config_extras = {});
    ~JsonEnvelope() { w.end().newline(); }

    JsonEnvelope(const JsonEnvelope &) = delete;
    JsonEnvelope &operator=(const JsonEnvelope &) = delete;

    /** Start section @p key; the caller writes one value through the
     *  returned writer (nested() for an ostream entry point). */
    json::Writer &section(const char *key) { return w.key(key); }

    /**
     * Append the "trace" section (ToolApp::dumpTraceJson); no-op
     * unless --trace-out or --profile was given.
     */
    void traceSection(const ToolApp &app);

  private:
    json::Writer w;
};

} // namespace pva::tools

#endif // PVA_TOOLS_TOOL_APP_HH
