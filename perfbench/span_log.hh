/**
 * @file
 * In-memory span log of the serving benchmark.
 *
 * Spans are recorded around calls into the library's public
 * functions (setup phases, forwardStep, the per-site replays) and
 * written out once, at the end of the run, as JSON for run.py. Times
 * are seconds on the steady clock since process start.
 */

#ifndef PERFBENCH_SPAN_LOG_HH
#define PERFBENCH_SPAN_LOG_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** The benchmark's time origin (first use, at process start). */
inline Clock::time_point
epoch()
{
    static const Clock::time_point e = Clock::now();
    return e;
}

/** Seconds since epoch(). */
inline double
nowS()
{
    return std::chrono::duration<double>(Clock::now() - epoch()).count();
}

/** The clock instant @p s seconds after epoch(). */
inline Clock::time_point
atS(double s)
{
    return epoch() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(s));
}

/** One named interval with numeric attributes. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int64_t parent = -1; ///< index of the enclosing span, or -1
    std::vector<std::pair<std::string, double>> attrs;
    std::vector<int64_t> members; ///< pool ids a step span advanced
};

/** Thread-safe append-only span list. */
class SpanLog
{
  public:
    /** Append @p s; returns its index (usable as a parent id). */
    int64_t add(Span s)
    {
        std::lock_guard<std::mutex> g(mu);
        spans.push_back(std::move(s));
        return static_cast<int64_t>(spans.size()) - 1;
    }

    /** Time @p fn and append it as span @p name. */
    template <class Fn>
    int64_t timed(const std::string &name, Fn &&fn,
                  int64_t parent = -1,
                  std::vector<std::pair<std::string, double>> attrs = {})
    {
        Span s;
        s.name = name;
        s.parent = parent;
        s.attrs = std::move(attrs);
        s.start = nowS();
        fn();
        s.end = nowS();
        return add(std::move(s));
    }

    /** Set span @p id's end to now (spans opened with add()). */
    void close(int64_t id)
    {
        std::lock_guard<std::mutex> g(mu);
        spans[static_cast<size_t>(id)].end = nowS();
    }

    std::vector<Span> snapshot() const
    {
        std::lock_guard<std::mutex> g(mu);
        return spans;
    }

  private:
    mutable std::mutex mu;
    std::vector<Span> spans;
};

/** Write @p spans as a JSON array to @p f. */
inline void
writeSpans(std::FILE *f, const std::vector<Span> &spans)
{
    std::fprintf(f, "[");
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"start\":%.9f,"
                     "\"end\":%.9f,\"parent\":%lld,\"attrs\":{",
                     i ? "," : "", s.name.c_str(), s.start, s.end,
                     static_cast<long long>(s.parent));
        for (size_t a = 0; a < s.attrs.size(); ++a)
            std::fprintf(f, "%s\"%s\":%.9g", a ? "," : "",
                         s.attrs[a].first.c_str(), s.attrs[a].second);
        std::fprintf(f, "},\"members\":[");
        for (size_t m = 0; m < s.members.size(); ++m)
            std::fprintf(f, "%s%lld", m ? "," : "",
                         static_cast<long long>(s.members[m]));
        std::fprintf(f, "]}");
    }
    std::fprintf(f, "]");
}

} // namespace perfbench

#endif // PERFBENCH_SPAN_LOG_HH
