/**
 * @file
 * The benchmark's three workloads. Each is a batch closed loop: one
 * pass runs the workload's fixed list of operations (archive writes
 * and evaluate() calls), and every evaluation starts when the previous
 * one on its thread has ended.
 *
 *  - paper-predictors: bf-isl-tage-10 and bf-neural over v1 archives
 *    of SPEC17, SPEC03 and SERV3, on one thread. The paper's own
 *    mechanisms (BST, recency stack, segmented BF-GHR) do the work.
 *  - replay-archive: SPEC00, SERV1, MM1 and INT1 are written to v2
 *    archives, read back and evaluated with bimodal and gshare with
 *    per-branch profiles on. The trace container and the evaluator
 *    do the work; the paper's predictors do none.
 *  - figure-suite: a Fig. 8/10-style (trace x predictor) matrix on a
 *    SuiteRunner pool, streaming from the generator with per-job
 *    telemetry armed, as a figure bench with --json runs it.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "probes.hpp"
#include "sim/evaluator.hpp"
#include "tracegen/workloads.hpp"

namespace perfbench
{

/** Layer accounting of one traced pass. */
struct PassProbe
{
    struct Eval
    {
        std::string spec;
        LayerTimes times;
        uint64_t evalNs = 0;  //!< Wall time of the evaluate() call.
        uint64_t records = 0; //!< Records it consumed.
    };

    std::vector<Eval> evals;
    uint64_t writeNs = 0; //!< Archive writes (TraceFileWriter).
    std::vector<Span> spans;
};

/** What one pass produced. results/counters/ok hold one entry per
 *  evaluation, in a fixed order, so passes compare entry by entry. */
struct PassOutput
{
    std::vector<bfbp::EvalResult> results;
    std::vector<std::map<std::string, uint64_t>> counters;
    std::vector<bool> ok; //!< False when the evaluation failed.

    uint64_t records = 0;   //!< Records consumed by evaluate().
    double seconds = 0.0;   //!< Wall time of the timed region.
    uint64_t attempted = 0; //!< Evaluations plus archive writes.
    std::vector<std::string> errors; //!< One per failed operation.

    // SuiteRunner accounting (figure-suite only).
    double jobSeconds = 0.0;        //!< Sum of SuiteOutcome::seconds.
    double slowestJobSeconds = 0.0;
    unsigned workers = 0;
};

/** Which library layer a workload's evaluate() sources belong to. */
enum class SourceLayer
{
    TraceIo,  //!< TraceFileSource over an archive.
    Tracegen, //!< The synthetic generator, streamed.
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Builds the sources and writes the archives the passes read,
     *  under @p dir. Safe to call repeatedly; each call redoes it. */
    virtual void setup(const std::filesystem::path &dir) = 0;

    /** One pass over the workload. With @p probe set, sources and
     *  predictors are wrapped in the timing decorators. */
    virtual PassOutput pass(PassProbe *probe) = 0;

    /** Checks @p reference against an independent recomputation;
     *  returns one message per mismatch. */
    virtual std::vector<std::string>
    verify(const PassOutput &reference)
    {
        (void)reference;
        return {};
    }

    virtual SourceLayer sourceLayer() const = 0;

    /** Threads a pass keeps busy (the host gauge runs as many). */
    virtual unsigned threads() const { return 1; }

    /** Evaluations a verify() call makes (they count as attempted). */
    virtual uint64_t verifyOperations() const { return 0; }

    /** Standard-suite traces this workload replays (before the seed
     *  perturbation), in evaluation order. */
    const std::vector<std::string> &traces() const { return traceNames; }
    const std::vector<std::string> &specs() const { return specNames; }

  protected:
    Workload(std::vector<std::string> trace_names,
             std::vector<std::string> spec_names, uint64_t seed)
        : traceNames(std::move(trace_names)),
          specNames(std::move(spec_names)), workloadSeed(seed)
    {
    }

    std::vector<std::string> traceNames;
    std::vector<std::string> specNames;
    uint64_t workloadSeed;
};

/** @throws std::invalid_argument for an unknown workload name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       uint64_t seed);

const std::vector<std::string> &workloadNames();

/** Every predictor spec some workload evaluates. */
std::vector<std::string> allSpecs();

/** The paper's predictors (the `core` module) versus baselines. */
bool isCoreSpec(const std::string &spec);

/**
 * A copy of the standard recipe @p name whose generator seed is
 * shifted by the workload seed; seed 0 is the library's own trace.
 * The library's recipe table is not touched.
 */
bfbp::tracegen::TraceRecipe seededRecipe(const std::string &name,
                                         uint64_t seed);

/** Every field of @p r, for exact comparisons. */
std::string fingerprint(const bfbp::EvalResult &r,
                        bool with_trace_name = true);

/** Records evaluate() consumed. */
inline uint64_t
recordsOf(const bfbp::EvalResult &r)
{
    return r.condBranches + r.otherBranches + r.recordsSkipped;
}

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
