#include "workloads.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/factory.hpp"
#include "sim/suite_runner.hpp"
#include "sim/trace_io.hpp"

namespace perfbench
{

namespace
{

// Trace scales. On a 4-vCPU Xeon VM a pass takes about 0.3 s
// (paper-predictors), 0.06 s (replay-archive, whose records and
// archives stay cache-sized) and 0.5 s (figure-suite). Host contention
// comes and goes within a run, so many short passes, each stated at
// the host speed measured around it, give a steadier median than a few
// long ones: figure-suite's five-seed spread fell from 0.11 at scale
// 0.15 to 0.04 at 0.05. The paper-predictors rate measured the same at
// scale 0.12 and 0.05, and figure-suite's at 0.15 and 0.05, so warm-up
// does not dominate.
constexpr double paperScale = 0.05;
constexpr double replayScale = 0.2;
constexpr double figureScale = 0.05;

constexpr size_t pullRecords = 4096;

/**
 * One evaluate() call as an operation: builds a fresh predictor, runs
 * it over the source, checks the record count, and files the result
 * (and, traced, the layer times) into @p out / @p probe.
 */
template <typename MakeSource>
void
runEvaluation(PassOutput &out, PassProbe *probe, const std::string &trace,
              const std::string &spec, MakeSource make_source,
              const bfbp::EvalOptions &options, uint64_t expected_records)
{
    ++out.attempted;
    bfbp::EvalResult result;
    std::map<std::string, uint64_t> counters;
    LayerTimes times;
    uint64_t evalNs = 0;
    bool ok = true;
    try {
        std::unique_ptr<bfbp::TraceSource> source = make_source();
        std::unique_ptr<bfbp::BranchPredictor> predictor =
            bfbp::createPredictor(spec);
        if (probe != nullptr) {
            source = std::make_unique<TimedSource>(std::move(source), times);
            predictor = std::make_unique<TimedPredictor>(
                std::move(predictor), times);
        }
        {
            SpanScope span(probe != nullptr ? &times.spans : nullptr,
                           "evaluate", trace + "/" + spec);
            const uint64_t t0 = nowNs();
            result = bfbp::evaluate(*source, *predictor, options);
            evalNs = nowNs() - t0;
        }
        bfbp::telemetry::Telemetry sink;
        predictor->emitTelemetry(sink);
        counters = sink.counters();
        if (recordsOf(result) != expected_records) {
            ok = false;
            out.errors.push_back(
                trace + "/" + spec + ": consumed " +
                std::to_string(recordsOf(result)) + " records, the trace has " +
                std::to_string(expected_records));
        }
    } catch (const std::exception &e) {
        ok = false;
        out.errors.push_back(trace + "/" + spec + ": " + e.what());
    }
    out.records += recordsOf(result);
    out.results.push_back(std::move(result));
    out.counters.push_back(std::move(counters));
    out.ok.push_back(ok);
    if (probe != nullptr)
        probe->evals.push_back({spec, std::move(times), evalNs,
                                recordsOf(out.results.back())});
}

/** bf-isl-tage-10 and bf-neural over v1 archives, one thread. */
class PaperPredictors final : public Workload
{
  public:
    explicit PaperPredictors(uint64_t seed)
        : Workload({"SPEC17", "SPEC03", "SERV3"},
                   {"bf-isl-tage-10", "bf-neural"}, seed)
    {
    }

    void
    setup(const std::filesystem::path &dir) override
    {
        archives.clear();
        std::vector<bfbp::BranchRecord> block(pullRecords);
        for (const std::string &trace : traceNames) {
            const std::string path = (dir / (trace + ".v1.bfbt")).string();
            auto source = bfbp::tracegen::makeSource(
                seededRecipe(trace, workloadSeed), paperScale);
            bfbp::TraceFileWriter writer(path, bfbp::TraceFormat::V1);
            size_t n = 0;
            while ((n = source->nextBlock(block.data(), block.size())) > 0) {
                for (size_t i = 0; i < n; ++i)
                    writer.append(block[i]);
            }
            writer.close();
            archives.push_back({path, writer.written()});
        }
    }

    PassOutput
    pass(PassProbe *probe) override
    {
        PassOutput out;
        const uint64_t t0 = nowNs();
        for (size_t t = 0; t < traceNames.size(); ++t) {
            const Archive &a = archives[t];
            for (const std::string &spec : specNames) {
                runEvaluation(
                    out, probe, traceNames[t], spec,
                    [&a] {
                        return std::make_unique<bfbp::TraceFileSource>(a.path);
                    },
                    bfbp::EvalOptions{}, a.records);
            }
        }
        out.seconds = secondsSince(t0);
        return out;
    }

    SourceLayer sourceLayer() const override { return SourceLayer::TraceIo; }

  private:
    struct Archive
    {
        std::string path;
        uint64_t records = 0;
    };
    std::vector<Archive> archives;
};

/** v2 write + read-back + bimodal/gshare with per-branch profiles. */
class ReplayArchive final : public Workload
{
  public:
    explicit ReplayArchive(uint64_t seed)
        : Workload({"SPEC00", "SERV1", "MM1", "INT1"}, {"bimodal", "gshare"},
                   seed)
    {
        options.collectPerBranch = true;
    }

    /** A repeated setup refills the same record buffers: setups run
     *  between passes, and fresh multi-megabyte buffers there would
     *  leave the heap, and so the peak RSS, shaped by how many passes
     *  the host speed allowed in between. */
    void
    setup(const std::filesystem::path &dir) override
    {
        traces.resize(traceNames.size());
        std::vector<bfbp::BranchRecord> block(pullRecords);
        for (size_t t = 0; t < traceNames.size(); ++t) {
            Trace &trace = traces[t];
            trace.path = (dir / (traceNames[t] + ".v2.bfbt")).string();
            trace.records.clear();
            auto source = bfbp::tracegen::makeSource(
                seededRecipe(traceNames[t], workloadSeed), replayScale);
            size_t n = 0;
            while ((n = source->nextBlock(block.data(), block.size())) > 0)
                trace.records.insert(trace.records.end(), block.begin(),
                                     block.begin() + n);
        }
    }

    PassOutput
    pass(PassProbe *probe) override
    {
        PassOutput out;
        const uint64_t t0 = nowNs();
        for (size_t t = 0; t < traces.size(); ++t) {
            const Trace &trace = traces[t];
            if (!writeArchive(out, probe, traceNames[t], trace))
                continue;
            for (const std::string &spec : specNames) {
                runEvaluation(
                    out, probe, traceNames[t], spec,
                    [&trace] {
                        return std::make_unique<bfbp::TraceFileSource>(
                            trace.path);
                    },
                    options, trace.records.size());
            }
        }
        out.seconds = secondsSince(t0);
        return out;
    }

    /** The archive round trip must not change a single outcome: the
     *  same evaluations over the in-memory records match exactly. */
    std::vector<std::string>
    verify(const PassOutput &reference) override
    {
        std::vector<std::string> errors;
        size_t k = 0;
        for (size_t t = 0; t < traces.size(); ++t) {
            for (const std::string &spec : specNames) {
                bfbp::VectorTraceSource source(traces[t].records);
                auto predictor = bfbp::createPredictor(spec);
                const bfbp::EvalResult direct =
                    bfbp::evaluate(source, *predictor, options);
                if (k >= reference.results.size() || !reference.ok[k] ||
                    fingerprint(direct, false) !=
                        fingerprint(reference.results[k], false)) {
                    errors.push_back(traceNames[t] + "/" + spec +
                                     ": archive replay differs from the "
                                     "in-memory trace");
                }
                ++k;
            }
        }
        return errors;
    }

    uint64_t
    verifyOperations() const override
    {
        return traceNames.size() * specNames.size();
    }

    SourceLayer sourceLayer() const override { return SourceLayer::TraceIo; }

  private:
    struct Trace
    {
        std::string path;
        std::vector<bfbp::BranchRecord> records;
    };

    /** Writes one v2 archive; an operation of its own. */
    static bool
    writeArchive(PassOutput &out, PassProbe *probe, const std::string &name,
                 const Trace &trace)
    {
        ++out.attempted;
        try {
            SpanScope span(probe != nullptr ? &probe->spans : nullptr,
                           "trace_io", "write " + name);
            const uint64_t t0 = nowNs();
            bfbp::TraceFileWriter writer(trace.path, bfbp::TraceFormat::V2);
            for (const bfbp::BranchRecord &r : trace.records)
                writer.append(r);
            writer.close();
            if (probe != nullptr)
                probe->writeNs += nowNs() - t0;
            if (writer.written() != trace.records.size()) {
                out.errors.push_back(name + ": archive holds " +
                                     std::to_string(writer.written()) +
                                     " records");
                return false;
            }
            return true;
        } catch (const std::exception &e) {
            out.errors.push_back(name + ": write: " + e.what());
            return false;
        }
    }

    bfbp::EvalOptions options;
    std::vector<Trace> traces;
};

/**
 * A Fig. 8/10-style matrix on a SuiteRunner pool of at most three
 * workers. On a shared 4-vCPU VM, a fourth worker competes with every
 * other task on the machine and the straggler it creates sets the
 * pass time: interleaved runs spread 0.13 of their median with four
 * workers and 0.09 with three.
 */
class FigureSuite final : public Workload
{
  public:
    explicit FigureSuite(uint64_t seed)
        : Workload({"SPEC06", "SPEC07", "FP2", "INT3", "MM5", "SERV3"},
                   {"isl-tage-7", "bf-isl-tage-7", "tage-15", "oh-snap",
                    "bf-neural"},
                   seed),
          workers(std::clamp(std::thread::hardware_concurrency(), 1u, 3u))
    {
    }

    /** Sources stream during the pass, so setup only builds the
     *  recipes and checks the matrix: each generator produces its
     *  first block and each spec constructs, as a figure bench's
     *  option parsing would reject a bad name before the pool runs. */
    void
    setup(const std::filesystem::path &dir) override
    {
        (void)dir;
        recipes.clear();
        std::vector<bfbp::BranchRecord> block(pullRecords);
        for (const std::string &trace : traceNames) {
            recipes.push_back(seededRecipe(trace, workloadSeed));
            auto source = bfbp::tracegen::makeSource(recipes.back(),
                                                     figureScale);
            if (source->nextBlock(block.data(), block.size()) == 0)
                throw std::runtime_error(trace + " generates no records");
        }
        for (const std::string &spec : specNames)
            bfbp::createPredictor(spec);
    }

    PassOutput
    pass(PassProbe *probe) override
    {
        const size_t jobCount = recipes.size() * specNames.size();
        std::vector<LayerTimes> slots(probe != nullptr ? jobCount : 0);
        std::vector<bfbp::SuiteJob> jobs;
        jobs.reserve(jobCount);
        for (const auto &recipe : recipes) {
            for (const std::string &spec : specNames) {
                LayerTimes *slot =
                    probe != nullptr ? &slots[jobs.size()] : nullptr;
                const std::string label = recipe.name + "/" + spec;
                bfbp::SuiteJob job;
                job.traceName = recipe.name;
                job.collectTelemetry = true;
                job.makeSource = [recipe, slot, label]()
                    -> std::unique_ptr<bfbp::TraceSource> {
                    auto source =
                        bfbp::tracegen::makeSource(recipe, figureScale);
                    if (slot == nullptr)
                        return source;
                    return std::make_unique<TimedSource>(std::move(source),
                                                         *slot, label);
                };
                job.makePredictor = [spec, slot]()
                    -> std::unique_ptr<bfbp::BranchPredictor> {
                    auto predictor = bfbp::createPredictor(spec);
                    if (slot == nullptr)
                        return predictor;
                    return std::make_unique<TimedPredictor>(
                        std::move(predictor), *slot);
                };
                jobs.push_back(std::move(job));
            }
        }

        PassOutput out;
        out.workers = workers;
        const uint64_t t0 = nowNs();
        std::vector<bfbp::SuiteOutcome> outcomes =
            bfbp::SuiteRunner(workers).run(jobs);
        out.seconds = secondsSince(t0);

        for (size_t i = 0; i < outcomes.size(); ++i) {
            bfbp::SuiteOutcome &o = outcomes[i];
            const std::string &spec = specNames[i % specNames.size()];
            ++out.attempted;
            if (o.failed) {
                out.errors.push_back(jobs[i].traceName + "/" + spec + ": " +
                                     o.error);
            }
            out.records += recordsOf(o.result);
            out.jobSeconds += o.seconds;
            out.slowestJobSeconds = std::max(out.slowestJobSeconds,
                                             o.seconds);
            if (probe != nullptr) {
                LayerTimes &times = slots[i];
                const uint64_t evalNs =
                    static_cast<uint64_t>(o.seconds * 1e9);
                // The runner times evaluate() itself; its span starts
                // at the job's first source pull, on the thread that
                // recorded the job span (the last span, pushed when the
                // job's source was destroyed).
                if (times.firstPullNs != 0 && !times.spans.empty()) {
                    times.spans.push_back(
                        {"evaluate " + jobs[i].traceName + "/" + spec,
                         "evaluate", times.firstPullNs, evalNs,
                         times.spans.back().thread});
                }
                probe->evals.push_back({spec, std::move(times), evalNs,
                                        recordsOf(o.result)});
            }
            out.counters.push_back(o.data.counters());
            out.ok.push_back(!o.failed);
            out.results.push_back(std::move(o.result));
        }
        return out;
    }

    SourceLayer sourceLayer() const override { return SourceLayer::Tracegen; }

    unsigned threads() const override { return workers; }

  private:
    unsigned workers;
    std::vector<bfbp::tracegen::TraceRecipe> recipes;
};

} // anonymous namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper-predictors", "replay-archive", "figure-suite"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed)
{
    if (name == "paper-predictors")
        return std::make_unique<PaperPredictors>(seed);
    if (name == "replay-archive")
        return std::make_unique<ReplayArchive>(seed);
    if (name == "figure-suite")
        return std::make_unique<FigureSuite>(seed);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

std::vector<std::string>
allSpecs()
{
    std::vector<std::string> specs;
    for (const std::string &name : workloadNames()) {
        const std::unique_ptr<Workload> wl = makeWorkload(name, 0);
        for (const std::string &spec : wl->specs()) {
            if (std::find(specs.begin(), specs.end(), spec) == specs.end())
                specs.push_back(spec);
        }
    }
    return specs;
}

bool
isCoreSpec(const std::string &spec)
{
    return spec.rfind("bf-", 0) == 0;
}

bfbp::tracegen::TraceRecipe
seededRecipe(const std::string &name, uint64_t seed)
{
    bfbp::tracegen::TraceRecipe recipe =
        bfbp::tracegen::recipeByName(name);
    recipe.seed += 0x9E3779B97F4A7C15ULL * seed;
    return recipe;
}

std::string
fingerprint(const bfbp::EvalResult &r, bool with_trace_name)
{
    std::ostringstream os;
    if (with_trace_name)
        os << r.traceName;
    os << '|' << r.predictorName << '|' << r.instructions << '|'
       << r.condBranches << '|' << r.otherBranches << '|'
       << r.mispredictions << '|' << r.recordsSkipped << '|'
       << r.streamErrors;
    for (const bfbp::BranchProfile &b : r.perBranch) {
        os << ';' << b.pc << ',' << b.executions << ',' << b.taken << ','
           << b.transitions << ',' << b.mispredictions << ','
           << b.lastTaken;
    }
    return os.str();
}

} // namespace perfbench
