/**
 * @file
 * Measurement plumbing of the benchmark: a host clock, in-memory
 * spans, and forwarding TraceSource / BranchPredictor decorators that
 * time calls into the library layer they wrap.
 *
 * The decorators forward each call unchanged, so a decorated
 * evaluation produces the same EvalResult and telemetry counters as
 * an undecorated one; the traced run checks that on every workload.
 * Time is accumulated into plain integers (one evaluation's
 * LayerTimes is touched only by the thread running it); only block
 * pulls, evaluations and jobs become spans.
 *
 * Source pulls (one per ~4096 records) are all timed. Predictor calls
 * take a few nanoseconds each for the simple baselines, less than the
 * two clock reads that would time them, so one call in eight, picked
 * pseudo-randomly, is timed and the total is scaled up from those.
 */

#ifndef PERFBENCH_PROBES_HPP
#define PERFBENCH_PROBES_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/predictor.hpp"
#include "sim/trace_source.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench
{

/** Host nanoseconds on the steady clock. */
inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

inline double
secondsSince(uint64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

/** Written by timed loops so the compiler keeps their work. */
inline volatile uint64_t observed = 0;

/** One finished span, kept in memory until the run exports it. */
struct Span
{
    std::string name;
    std::string category;
    uint64_t startNs = 0;
    uint64_t durationNs = 0;
    std::thread::id thread = std::this_thread::get_id();
};

/** Records a span from construction to destruction into @p out
 *  (nothing when @p out is null). */
class SpanScope
{
  public:
    SpanScope(std::vector<Span> *out, std::string category,
              std::string name)
        : sink(out), cat(std::move(category)), label(std::move(name)),
          start(out != nullptr ? nowNs() : 0)
    {
    }

    ~SpanScope()
    {
        if (sink != nullptr)
            sink->push_back({label, cat, start, nowNs() - start});
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    std::vector<Span> *sink;
    std::string cat;
    std::string label;
    uint64_t start;
};

/**
 * What timing adds: insideNs lands inside each timed call's measured
 * interval; perCallNs is the average a decorated predictor call adds
 * to the whole run (sampling decision plus, for the sampled calls,
 * both clock reads). Layer figures have both taken out.
 */
struct TimerCost
{
    double insideNs = 0.0;
    double perCallNs = 0.0;
};

/** Calls of one kind: all of them, the timed ones, their time. */
struct CallTimes
{
    uint64_t calls = 0;
    uint64_t timed = 0;
    uint64_t ns = 0;

    /** Estimated time of all calls, timer cost removed. */
    double
    estimateNs(const TimerCost &timer) const
    {
        if (timed == 0)
            return 0.0;
        const double perTimed = static_cast<double>(ns) /
                static_cast<double>(timed) - timer.insideNs;
        return perTimed > 0.0 ? perTimed * static_cast<double>(calls) : 0.0;
    }

    /** Estimated nanoseconds per call, timer cost removed. */
    double
    perCallNs(const TimerCost &timer) const
    {
        return calls == 0 ? 0.0
                          : estimateNs(timer) / static_cast<double>(calls);
    }

    CallTimes &
    operator+=(const CallTimes &o)
    {
        calls += o.calls;
        timed += o.timed;
        ns += o.ns;
        return *this;
    }
};

/** Host time one evaluation spent inside each wrapped layer. */
struct LayerTimes
{
    CallTimes source;  //!< TraceSource::nextBlock / next (all timed).
    CallTimes predict; //!< BranchPredictor::predict (sampled).
    CallTimes update;  //!< BranchPredictor::update (sampled).
    CallTimes other;   //!< BranchPredictor::trackOtherInst (sampled).
    uint64_t firstPullNs = 0; //!< Clock at the first source pull.
    std::vector<Span> spans;  //!< Block pulls (and the job span).
    uint64_t sampler = 0x853c49e6748fea9bULL;

    /** True for about one predictor call in eight. */
    bool
    sampleNext()
    {
        sampler = sampler * 6364136223846793005ULL + 1442695040888963407ULL;
        return (sampler >> 61) == 0;
    }

    uint64_t
    predictorCalls() const
    {
        return predict.calls + update.calls + other.calls;
    }

    double
    predictorNs(const TimerCost &timer) const
    {
        return predict.estimateNs(timer) + update.estimateNs(timer) +
            other.estimateNs(timer);
    }
};

/** Times one call into @p times when @p timed. */
class CallTimer
{
  public:
    CallTimer(CallTimes &times, bool timed)
        : acc(times), start(timed ? nowNs() : 0), on(timed)
    {
        ++acc.calls;
    }

    ~CallTimer()
    {
        if (on) {
            acc.ns += nowNs() - start;
            ++acc.timed;
        }
    }

    CallTimer(const CallTimer &) = delete;
    CallTimer &operator=(const CallTimer &) = delete;

  private:
    CallTimes &acc;
    uint64_t start;
    bool on;
};

/**
 * Forwarding source that times every pull. Owns the wrapped source
 * (suite jobs hand sources over as unique_ptr). When @p job_label is
 * non-empty the decorator also records a "job" span from its
 * construction (the job's source factory) to its destruction (the
 * end of the job).
 */
class TimedSource final : public bfbp::TraceSource
{
  public:
    TimedSource(std::unique_ptr<bfbp::TraceSource> wrapped,
                LayerTimes &times, std::string job_label = {})
        : inner(std::move(wrapped)), acc(times),
          jobLabel(std::move(job_label)), created(nowNs())
    {
    }

    ~TimedSource() override
    {
        if (!jobLabel.empty())
            acc.spans.push_back({jobLabel, "job", created,
                                 nowNs() - created});
    }

    TimedSource(const TimedSource &) = delete;
    TimedSource &operator=(const TimedSource &) = delete;

    bool
    next(bfbp::BranchRecord &out) override
    {
        CallTimer timer(acc.source, true);
        return inner->next(out);
    }

    size_t
    nextBlock(bfbp::BranchRecord *out, size_t max) override
    {
        const uint64_t t0 = nowNs();
        if (acc.firstPullNs == 0)
            acc.firstPullNs = t0;
        size_t n = 0;
        {
            CallTimer timer(acc.source, true);
            n = inner->nextBlock(out, max);
        }
        acc.spans.push_back({"pull", "source", t0, nowNs() - t0});
        return n;
    }

    std::string name() const override { return inner->name(); }

  protected:
    void resetImpl() override { inner->reset(); }

    bool
    seekToRecordImpl(uint64_t record_index) override
    {
        return inner->seekToRecord(record_index);
    }

  private:
    std::unique_ptr<bfbp::TraceSource> inner;
    LayerTimes &acc;
    std::string jobLabel;
    uint64_t created;
};

/**
 * Forwarding predictor that times a sample of predict/update/
 * trackOtherInst calls.
 *
 * Only the pure virtuals carry `override`. The optional hooks are
 * declared without it so the benchmark keeps compiling if the
 * interface drops one of them; while the base declares them they
 * override as usual. The lookahead hooks are deliberately not
 * forwarded: the base defaults report "unsupported".
 */
class TimedPredictor final : public bfbp::BranchPredictor
{
  public:
    TimedPredictor(std::unique_ptr<bfbp::BranchPredictor> wrapped,
                   LayerTimes &times)
        : inner(std::move(wrapped)), acc(times)
    {
    }

    bool
    predict(uint64_t pc) override
    {
        CallTimer timer(acc.predict, acc.sampleNext());
        return inner->predict(pc);
    }

    void
    update(uint64_t pc, bool taken, bool predicted,
           uint64_t target) override
    {
        CallTimer timer(acc.update, acc.sampleNext());
        inner->update(pc, taken, predicted, target);
    }

    void
    trackOtherInst(const bfbp::BranchRecord &record)
    {
        CallTimer timer(acc.other, acc.sampleNext());
        inner->trackOtherInst(record);
    }

    void
    emitTelemetry(bfbp::telemetry::Telemetry &sink) const
    {
        inner->emitTelemetry(sink);
    }

    std::string name() const override { return inner->name(); }

    bfbp::StorageReport
    storage() const override
    {
        return inner->storage();
    }

  private:
    std::unique_ptr<bfbp::BranchPredictor> inner;
    LayerTimes &acc;
};

/** Always-taken predictor: the evaluator's framework floor. */
class StaticPredictor final : public bfbp::BranchPredictor
{
  public:
    bool predict(uint64_t) override { return true; }
    void update(uint64_t, bool, bool, uint64_t) override {}
    std::string name() const override { return "static-taken"; }

    bfbp::StorageReport
    storage() const override
    {
        return bfbp::StorageReport("static-taken");
    }
};

/** A metric as printed: value plus unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;

double median(std::vector<double> values);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HPP
