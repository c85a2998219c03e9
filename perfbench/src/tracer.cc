#include "tracer.hh"

#include <iomanip>
#include <stdexcept>

namespace perfbench
{

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch)
        .count();
}

int
Tracer::begin(std::string name, std::int64_t id)
{
    Span s;
    s.name = std::move(name);
    s.id = id;
    s.parent = openStack.empty() ? -1 : openStack.back();
    s.startNs = nowNs();
    spanList.push_back(std::move(s));
    openStack.push_back(static_cast<int>(spanList.size() - 1));
    return openStack.back();
}

void
Tracer::end(int index)
{
    if (openStack.empty() || openStack.back() != index)
        throw std::logic_error("span closed out of order");
    spanList[index].endNs = nowNs();
    openStack.pop_back();
}

void
Tracer::addMeasured(std::string name, double millis, std::int64_t id)
{
    if (openStack.empty())
        throw std::logic_error("measured span needs an open parent");
    Span s;
    s.name = std::move(name);
    s.id = id;
    s.parent = openStack.back();
    s.startNs = spanList[s.parent].startNs;
    s.endNs = s.startNs + static_cast<std::int64_t>(millis * 1e6);
    s.measured = true;
    spanList.push_back(std::move(s));
}

std::vector<double>
Tracer::selfMillis() const
{
    std::vector<double> self(spanList.size());
    for (std::size_t i = 0; i < spanList.size(); ++i)
        self[i] += spanList[i].millis();
    for (const Span &s : spanList) {
        if (s.parent >= 0)
            self[s.parent] -= s.millis();
    }
    return self;
}

std::map<std::string, double>
Tracer::selfMillisByName() const
{
    std::map<std::string, double> out;
    const std::vector<double> self = selfMillis();
    for (std::size_t i = 0; i < spanList.size(); ++i)
        out[spanList[i].name] += self[i];
    return out;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spanList) {
        if (s.name == name)
            out.push_back(s.millis());
    }
    return out;
}

double
Tracer::rootSeconds() const
{
    double total = 0.0;
    for (const Span &s : spanList) {
        if (s.parent < 0)
            total += s.millis() / 1e3;
    }
    return total;
}

void
Tracer::writeChromeTrace(std::ostream &os,
                         const std::map<std::string, double> &summary)
    const
{
    os << std::fixed << std::setprecision(6) << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spanList.size(); ++i) {
        const Span &s = spanList[i];
        os << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
           << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
           << s.startNs / 1e3 << ", \"dur\": "
           << (s.endNs - s.startNs) / 1e3 << ", \"args\": {\"span\": "
           << i << ", \"parent\": " << s.parent << ", \"id\": " << s.id
           << ", \"measured\": " << (s.measured ? "true" : "false")
           << "}}";
    }
    os << "\n], \"layers\": {";
    bool first = true;
    for (const auto &[name, ms] : selfMillisByName()) {
        os << (first ? "" : ", ") << '"' << name << "\": " << ms;
        first = false;
    }
    os << "}, \"summary\": {" << std::defaultfloat << std::setprecision(17);
    first = true;
    for (const auto &[name, v] : summary) {
        os << (first ? "" : ", ") << '"' << name << "\": " << v;
        first = false;
    }
    os << "}}\n";
}

} // namespace perfbench
