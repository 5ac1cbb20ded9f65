/**
 * @file
 * perfbench: runs one workload and prints one JSON object as the last
 * line of standard output (see ../README.md).
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--workdir DIR] [--trace-out FILE]
 *             [--golden-specs a,b,...] [--golden-scale X]
 *
 * --trace 0 measures the end-to-end metrics with no decorators in
 * place. --trace 1 is the separate traced run: it repeats the
 * workload with and without the timing decorators, checks that both
 * produce identical results, reports the per-layer metrics and writes
 * the spans as Chrome trace-event JSON to --trace-out.
 *
 * Every run checks its outputs: each pass must reproduce the first
 * pass exactly, workload-specific checks must hold, and the golden
 * fixture rows of the workload's traces are recomputed (the caller
 * compares them with the fixture). Exit status 0 means the run
 * completed; a failed check is reported in the JSON and by run.py's
 * exit status.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "host_gauge.hpp"
#include "ledger.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench
{

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace
{

constexpr size_t setupRepeats = 25; //!< setup_s is the median of these.
constexpr size_t minPasses = 3;
constexpr size_t maxTracedPasses = 5;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    std::filesystem::path workdir = ".bench_build/perfbench/work";
    std::string traceOut;
    std::vector<std::string> goldenSpecs;
    double goldenScale = 0.02;
};

struct GoldenRow
{
    std::string trace;
    std::string predictor;
    bfbp::EvalResult result;
};

/** Everything the run prints. */
struct Report
{
    uint64_t attempted = 0;
    std::vector<std::string> errors; //!< One per failed operation.
    Metrics metrics;
    std::vector<GoldenRow> golden;

    void
    absorb(const PassOutput &p)
    {
        attempted += p.attempted;
        errors.insert(errors.end(), p.errors.begin(), p.errors.end());
    }
};

[[noreturn]] void
usage(const std::string &problem)
{
    std::cerr << "perfbench: " << problem << "\n"
              << "usage: perfbench --workload NAME [--seed N] [--seconds S]"
                 " [--trace 0|1] [--workdir DIR] [--trace-out FILE]"
                 " [--golden-specs a,b] [--golden-scale X]\n";
    std::exit(2);
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string value = argv[++i];
        try {
            size_t used = 0;
            if (arg == "--workload") {
                o.workload = value;
            } else if (arg == "--seed") {
                o.seed = std::stoull(value, &used);
            } else if (arg == "--seconds") {
                o.seconds = std::stod(value, &used);
            } else if (arg == "--trace") {
                if (value != "0" && value != "1")
                    usage("--trace takes 0 or 1");
                o.traced = value == "1";
            } else if (arg == "--workdir") {
                o.workdir = value;
            } else if (arg == "--trace-out") {
                o.traceOut = value;
            } else if (arg == "--golden-specs") {
                o.goldenSpecs = splitList(value);
            } else if (arg == "--golden-scale") {
                o.goldenScale = std::stod(value, &used);
            } else {
                usage("unknown option " + arg);
            }
            if (used != 0 && used != value.size())
                usage("malformed value for " + arg + ": " + value);
        } catch (const std::logic_error &) {
            usage("malformed value for " + arg + ": " + value);
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), o.workload) == names.end())
        usage("--workload must be one of paper-predictors, replay-archive, "
              "figure-suite");
    if (!(o.seconds > 0.0) || !(o.goldenScale > 0.0))
        usage("--seconds and --golden-scale must be positive");
    return o;
}

/** Every later pass must reproduce @p ref exactly. */
void
compareToReference(const PassOutput &ref, const PassOutput &p,
                   const std::string &what, Report &report)
{
    if (p.results.size() != ref.results.size()) {
        report.errors.push_back(what + ": ran " +
                                std::to_string(p.results.size()) +
                                " evaluations, the first pass ran " +
                                std::to_string(ref.results.size()));
        return;
    }
    for (size_t i = 0; i < p.results.size(); ++i) {
        if (!ref.ok[i] || !p.ok[i])
            continue; // Already counted as failed.
        if (fingerprint(p.results[i]) != fingerprint(ref.results[i]) ||
            p.counters[i] != ref.counters[i]) {
            report.errors.push_back(what + ": " + p.results[i].traceName +
                                    "/" + p.results[i].predictorName +
                                    " differs from the first pass");
        }
    }
}

double
meanMpki(const PassOutput &p)
{
    double sum = 0.0;
    size_t n = 0;
    for (size_t i = 0; i < p.results.size(); ++i) {
        if (p.ok[i]) {
            sum += p.results[i].mpki();
            ++n;
        }
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

/** The workload's own check of the reference pass. */
void
verify(Workload &wl, const PassOutput &ref, Report &report)
{
    const std::vector<std::string> errors = wl.verify(ref);
    report.attempted += wl.verifyOperations();
    report.errors.insert(report.errors.end(), errors.begin(), errors.end());
}

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux.
}

/**
 * Times @p step between two host gauge readings on @p threads threads;
 * returns its wall seconds and the host speed around it (geometric mean
 * of the reading before, passed in @p speed, and the one after, left in
 * @p speed).
 */
template <typename Step>
std::pair<double, double>
gauged(HostGauge &gauge, unsigned threads, double &speed, Step step)
{
    const uint64_t t0 = nowNs();
    step();
    const double seconds = secondsSince(t0);
    const double before = speed;
    speed = gauge.measure(threads);
    return {seconds, std::sqrt(before * speed)};
}

void
printSpread(const char *what, const std::vector<double> &raw,
            const std::vector<double> &adjusted)
{
    std::cerr << "perfbench: " << raw.size() << " " << what << ", raw min "
              << *std::min_element(raw.begin(), raw.end()) << " median "
              << median(raw) << " max "
              << *std::max_element(raw.begin(), raw.end())
              << "; host-speed adjusted median " << median(adjusted) << "\n";
}

/**
 * Every setup and timed pass sits between two host gauge readings and
 * is stated at the reference host speed: a rate is divided by the
 * relative speed around it, a duration multiplied by it. The raw wall
 * figures go to standard error.
 *
 * Setups are spread over the run, one after a pass whenever fewer have
 * run than their share of the elapsed time, so setup_s samples the host
 * and its storage (archive writes end in fsync) across the whole run
 * rather than in its first half second.
 */
void
runEndToEnd(Workload &wl, const Options &o, Report &report)
{
    // Setup runs on one thread; a pass keeps wl.threads() busy.
    HostGauge gauge(wl.threads());
    std::vector<double> setups, rawSetups;
    auto timedSetup = [&] {
        double speed = gauge.measure(1);
        const auto [seconds, around] =
            gauged(gauge, 1, speed, [&] { wl.setup(o.workdir); });
        rawSetups.push_back(seconds);
        setups.push_back(seconds * around);
    };
    timedSetup();

    // The first pass warms caches and allocators and is the reference
    // every timed pass must reproduce.
    const PassOutput ref = wl.pass(nullptr);
    report.absorb(ref);
    std::vector<double> rates, rawRates;
    const uint64_t start = nowNs();
    double speed = gauge.measure(wl.threads());
    while (rates.size() < minPasses || secondsSince(start) < o.seconds) {
        PassOutput p;
        const double around =
            gauged(gauge, wl.threads(), speed, [&] {
                p = wl.pass(nullptr);
            }).second;
        report.absorb(p);
        compareToReference(ref, p, "pass " + std::to_string(rates.size() + 1),
                           report);
        rawRates.push_back(static_cast<double>(p.records) / p.seconds);
        rates.push_back(rawRates.back() / around);
        const double due = setupRepeats * secondsSince(start) / o.seconds;
        if (static_cast<double>(setups.size()) < due) {
            timedSetup();
            speed = gauge.measure(wl.threads());
        }
    }
    while (setups.size() < setupRepeats)
        timedSetup();
    printSpread("setups (s)", rawSetups, setups);
    printSpread("timed passes (records/s)", rawRates, rates);

    verify(wl, ref, report);

    report.metrics["records_per_s"] = {median(rates), "records/s"};
    report.metrics["mpki"] = {meanMpki(ref), "mispred/kinst"};
    report.metrics["setup_s"] = {median(setups), "s"};
}

/**
 * Per-layer shares of one workload's timed region (archive writes
 * plus evaluate() calls), from the decorators' accumulated times with
 * the timer's own cost taken out of every layer and of the total.
 */
void
layerShares(const PassProbe &probe, SourceLayer layer,
            const TimerCost &timer, Metrics &m)
{
    double work = static_cast<double>(probe.writeNs);
    double source = 0.0, core = 0.0, baseline = 0.0, self = 0.0;
    uint64_t records = 0;
    for (const PassProbe::Eval &e : probe.evals) {
        const LayerTimes &t = e.times;
        const double inSource = t.source.estimateNs(timer);
        const double inPredictor = t.predictorNs(timer);
        const double inEvaluator = std::max(
            0.0, static_cast<double>(e.evalNs) -
                     static_cast<double>(t.source.ns) - inPredictor -
                     static_cast<double>(t.predictorCalls()) * timer.perCallNs);
        source += inSource;
        (isCoreSpec(e.spec) ? core : baseline) += inPredictor;
        self += inEvaluator;
        work += inSource + inPredictor + inEvaluator;
        records += e.records;
    }
    const double ioNs = static_cast<double>(probe.writeNs) +
        (layer == SourceLayer::TraceIo ? source : 0.0);
    const double genNs = layer == SourceLayer::Tracegen ? source : 0.0;
    m["tracegen.busy_share"] = {genNs / work, "ratio"};
    m["trace_io.busy_share"] = {ioNs / work, "ratio"};
    m["evaluator.busy_share"] = {self / work, "ratio"};
    m["predictors.busy_share"] = {baseline / work, "ratio"};
    m["core.busy_share"] = {core / work, "ratio"};
    m["evaluator.self_ns_per_record"] = {
        self / static_cast<double>(std::max<uint64_t>(1, records)), "ns"};
}

void
runTraced(Workload &wl, const Options &o, Report &report,
          std::vector<Span> &spans)
{
    {
        SpanScope span(&spans, "setup", "setup");
        wl.setup(o.workdir);
    }

    PassOutput ref;
    std::vector<double> plainWalls, efficiency, slowest;
    const uint64_t start = nowNs();
    while (plainWalls.size() < minPasses ||
           secondsSince(start) < o.seconds / 2) {
        SpanScope span(&spans, "pass", "untraced pass");
        PassOutput p = wl.pass(nullptr);
        report.absorb(p);
        if (plainWalls.empty())
            ref = p;
        else
            compareToReference(ref, p, "untraced pass", report);
        plainWalls.push_back(p.seconds);
        if (p.workers != 0) {
            efficiency.push_back(p.jobSeconds / (p.seconds * p.workers));
            slowest.push_back(p.slowestJobSeconds);
        }
    }

    PassProbe total;
    std::vector<double> tracedWalls;
    const size_t tracedPasses = std::min(plainWalls.size(), maxTracedPasses);
    for (size_t i = 0; i < tracedPasses; ++i) {
        SpanScope span(&spans, "pass", "traced pass");
        PassProbe probe;
        const PassOutput p = wl.pass(&probe);
        report.absorb(p);
        // The decorators must not change what the program computes.
        compareToReference(ref, p, "traced pass", report);
        tracedWalls.push_back(p.seconds);
        total.writeNs += probe.writeNs;
        spans.insert(spans.end(), probe.spans.begin(), probe.spans.end());
        for (PassProbe::Eval &e : probe.evals) {
            spans.insert(spans.end(), e.times.spans.begin(),
                         e.times.spans.end());
            e.times.spans.clear();
            total.evals.push_back(std::move(e));
        }
    }

    verify(wl, ref, report);

    Metrics &m = report.metrics;
    m["trace_overhead"] = {median(tracedWalls) / median(plainWalls), "ratio"};
    const TimerCost timer = calibrateTimer();
    layerShares(total, wl.sourceLayer(), timer, m);
    m["suite_runner.parallel_efficiency"] = {median(efficiency), "ratio"};
    m["suite_runner.slowest_job_s"] = {median(slowest), "s"};

    const Metrics ledger = runLedger(o.seed, o.workdir, timer, spans);
    m.insert(ledger.begin(), ledger.end());
}

void
computeGolden(const Workload &wl, const Options &o, Report &report)
{
    for (const std::string &trace : wl.traces()) {
        for (const std::string &spec : o.goldenSpecs) {
            ++report.attempted;
            try {
                auto source = bfbp::tracegen::makeSource(
                    bfbp::tracegen::recipeByName(trace), o.goldenScale);
                auto predictor = bfbp::createPredictor(spec);
                report.golden.push_back(
                    {trace, spec, bfbp::evaluate(*source, *predictor)});
            } catch (const std::exception &e) {
                report.errors.push_back("golden " + trace + "/" + spec +
                                        ": " + e.what());
            }
        }
    }
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printReport(Report &report)
{
    for (const auto &[name, metric] : report.metrics) {
        if (!std::isfinite(metric.value))
            report.errors.push_back("metric " + name + " is not finite");
    }
    const bool correct = report.errors.empty();
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.errors.size() << ", \"metrics\": {";
    const char *sep = "";
    for (const auto &[name, metric] : report.metrics) {
        const double v = std::isfinite(metric.value) ? metric.value : 0.0;
        os << sep << jsonString(name) << ": {\"value\": " << jsonNumber(v)
           << ", \"unit\": " << jsonString(metric.unit) << "}";
        sep = ", ";
    }
    os << "}, \"golden\": [";
    sep = "";
    for (const GoldenRow &g : report.golden) {
        os << sep << "{\"trace\": " << jsonString(g.trace)
           << ", \"predictor\": " << jsonString(g.predictor)
           << ", \"instructions\": " << g.result.instructions
           << ", \"condBranches\": " << g.result.condBranches
           << ", \"mispredictions\": " << g.result.mispredictions << "}";
        sep = ", ";
    }
    os << "], \"errors\": [";
    sep = "";
    for (size_t i = 0; i < report.errors.size() && i < 20; ++i) {
        os << sep << jsonString(report.errors[i]);
        sep = ", ";
    }
    os << "]}";
    std::cout << os.str() << std::endl;
}

/** Chrome trace-event JSON, the format --trace-out produces. */
void
writeChromeTrace(const std::string &path, const std::string &process,
                 const std::vector<Span> &spans)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    uint64_t epoch = UINT64_MAX;
    for (const Span &s : spans)
        epoch = std::min(epoch, s.startNs);
    std::vector<std::thread::id> threads = {std::this_thread::get_id()};
    auto tidOf = [&threads](std::thread::id id) {
        auto it = std::find(threads.begin(), threads.end(), id);
        if (it == threads.end())
            it = threads.insert(threads.end(), id);
        return static_cast<int>(it - threads.begin()) + 1;
    };
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
        << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
        << "\"tid\": 1, \"args\": {\"name\": " << jsonString(process)
        << "}}";
    for (const Span &s : spans) {
        out << ",\n{\"name\": " << jsonString(s.name)
            << ", \"cat\": " << jsonString(s.category)
            << ", \"ph\": \"X\", \"ts\": "
            << jsonNumber(static_cast<double>(s.startNs - epoch) / 1e3)
            << ", \"dur\": "
            << jsonNumber(static_cast<double>(s.durationNs) / 1e3)
            << ", \"pid\": 1, \"tid\": " << tidOf(s.thread) << "}";
    }
    for (size_t i = 0; i < threads.size(); ++i) {
        out << ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
            << "\"tid\": " << i + 1 << ", \"args\": {\"name\": \""
            << (i == 0 ? std::string("main")
                       : "worker " + std::to_string(i))
            << "\"}}";
    }
    out << "\n]}\n";
    if (!out.flush())
        throw std::runtime_error("cannot write " + path);
}

} // anonymous namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Options o = parseOptions(argc, argv);
    Report report;
    try {
        std::filesystem::create_directories(o.workdir);
        auto wl = makeWorkload(o.workload, o.seed);
        std::vector<Span> spans;
        if (o.traced)
            runTraced(*wl, o, report, spans);
        else
            runEndToEnd(*wl, o, report);
        computeGolden(*wl, o, report);
        if (!o.traced)
            report.metrics["peak_rss_mib"] = {peakRssMib(), "MiB"};
        if (o.traced && !o.traceOut.empty()) {
            writeChromeTrace(o.traceOut, "perfbench " + o.workload, spans);
            std::cerr << "perfbench: spans written to " << o.traceOut << "\n";
        }
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
    printReport(report);
    return 0;
}
