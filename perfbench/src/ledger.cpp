#include "ledger.hpp"

#include <algorithm>

#include "core/bias_table.hpp"
#include "core/factory.hpp"
#include "core/recency_stack.hpp"
#include "core/segmented_rs.hpp"
#include "predictors/sizing.hpp"
#include "sim/evaluator.hpp"
#include "sim/trace_io.hpp"
#include "tracegen/workloads.hpp"
#include "util/folded_history.hpp"
#include "util/hashing.hpp"
#include "util/history_register.hpp"
#include "workloads.hpp"

namespace perfbench
{

namespace
{

constexpr double ledgerScale = 0.04;
constexpr int repeats = 3;       //!< Each rate is the median of these.
constexpr size_t timedBlock = 256; //!< Calls per clock pair in the
                                   //!< component loops.
constexpr unsigned addrHashBits = 14;

struct Stream
{
    std::string name;
    std::vector<bfbp::BranchRecord> records;
};

/** The conditional branches of a stream, with the bias status a
 *  2-bit BST gives each one at commit (as BF-TAGE files it). */
struct CondStream
{
    std::vector<uint64_t> pc;
    std::vector<uint16_t> addrHash;
    std::vector<bool> taken;
    std::vector<bool> nonBiased;
};

CondStream
conditionals(const Stream &s)
{
    CondStream c;
    bfbp::BranchStatusTable bst;
    for (const bfbp::BranchRecord &r : s.records) {
        if (!r.isConditional())
            continue;
        bst.train(r.pc, r.taken);
        c.pc.push_back(r.pc);
        c.addrHash.push_back(
            static_cast<uint16_t>(bfbp::hashPc(r.pc, addrHashBits)));
        c.taken.push_back(r.taken);
        c.nonBiased.push_back(bst.isNonBiased(r.pc));
    }
    return c;
}

uint64_t
drain(bfbp::TraceSource &source)
{
    static std::vector<bfbp::BranchRecord> block(4096);
    uint64_t n = 0;
    size_t got = 0;
    while ((got = source.nextBlock(block.data(), block.size())) > 0)
        n += got;
    return n;
}

uint64_t
totalRecords(const std::vector<Stream> &streams)
{
    uint64_t n = 0;
    for (const Stream &s : streams)
        n += s.records.size();
    return n;
}

/** Median over `repeats` runs of @p body's wall seconds. */
template <typename Body>
double
medianSeconds(Body body)
{
    std::vector<double> t;
    for (int i = 0; i < repeats; ++i) {
        const uint64_t t0 = nowNs();
        body();
        t.push_back(secondsSince(t0));
    }
    return median(t);
}

} // anonymous namespace

TimerCost
calibrateTimer()
{
    auto source = bfbp::tracegen::makeSource(
        bfbp::tracegen::recipeByName("SPEC00"), 0.1);
    const std::vector<bfbp::BranchRecord> records = bfbp::collect(*source);
    std::vector<double> plainNs, timedNs, insideNs;
    uint64_t calls = 0;
    for (int i = 0; i < 2 * repeats; ++i) {
        {
            bfbp::VectorTraceSource s(records);
            StaticPredictor predictor;
            const uint64_t t0 = nowNs();
            bfbp::evaluate(s, predictor);
            plainNs.push_back(static_cast<double>(nowNs() - t0));
        }
        LayerTimes times;
        bfbp::VectorTraceSource s(records);
        TimedPredictor predictor(std::make_unique<StaticPredictor>(), times);
        const uint64_t t0 = nowNs();
        bfbp::evaluate(s, predictor);
        timedNs.push_back(static_cast<double>(nowNs() - t0));
        const CallTimes &p = times.predict, &u = times.update,
                        &o = times.other;
        insideNs.push_back(static_cast<double>(p.ns + u.ns + o.ns) /
                           static_cast<double>(p.timed + u.timed + o.timed));
        calls = times.predictorCalls();
    }
    TimerCost cost;
    cost.insideNs = median(insideNs);
    cost.perCallNs = std::max(0.0, (median(timedNs) - median(plainNs)) /
                                       static_cast<double>(calls));
    return cost;
}

Metrics
runLedger(uint64_t seed, const std::filesystem::path &dir,
          const TimerCost &timer, std::vector<Span> &spans)
{
    Metrics m;
    const std::vector<std::string> names =
        makeWorkload("paper-predictors", seed)->traces();

    std::vector<Stream> streams;
    for (const std::string &name : names) {
        auto source = bfbp::tracegen::makeSource(seededRecipe(name, seed),
                                                 ledgerScale);
        streams.push_back({name, bfbp::collect(*source)});
    }
    const double records = static_cast<double>(totalRecords(streams));

    {
        SpanScope span(&spans, "ledger", "tracegen");
        const double s = medianSeconds([&] {
            for (const std::string &name : names) {
                auto source = bfbp::tracegen::makeSource(
                    seededRecipe(name, seed), ledgerScale);
                drain(*source);
            }
        });
        m["tracegen.records_per_s"] = {records / s, "records/s"};
    }

    {
        SpanScope span(&spans, "ledger", "trace_io");
        auto pathOf = [&dir](const Stream &s, const char *suffix) {
            return (dir / ("ledger-" + s.name + suffix)).string();
        };
        for (const Stream &s : streams)
            bfbp::writeTrace(pathOf(s, ".v1.bfbt"), s.records,
                             bfbp::TraceFormat::V1);
        const double encodeV2 = medianSeconds([&] {
            for (const Stream &s : streams)
                bfbp::writeTrace(pathOf(s, ".v2.bfbt"), s.records,
                                 bfbp::TraceFormat::V2);
        });
        auto decode = [&](const char *suffix) {
            return medianSeconds([&] {
                for (const Stream &s : streams) {
                    bfbp::TraceFileSource source(pathOf(s, suffix));
                    drain(source);
                }
            });
        };
        uintmax_t v2Bytes = 0;
        for (const Stream &s : streams)
            v2Bytes += std::filesystem::file_size(pathOf(s, ".v2.bfbt"));
        m["trace_io.v1.decode_records_per_s"] = {records / decode(".v1.bfbt"),
                                                 "records/s"};
        m["trace_io.v2.decode_records_per_s"] = {records / decode(".v2.bfbt"),
                                                 "records/s"};
        m["trace_io.v2.encode_records_per_s"] = {records / encodeV2,
                                                 "records/s"};
        m["trace_io.v2.bytes_per_record"] = {
            static_cast<double>(v2Bytes) / records, "bytes/record"};
    }

    {
        SpanScope span(&spans, "ledger", "evaluator");
        auto floorSeconds = [&](bool per_branch) {
            bfbp::EvalOptions options;
            options.collectPerBranch = per_branch;
            std::vector<double> t;
            for (int i = 0; i < repeats; ++i) {
                double total = 0.0;
                for (const Stream &s : streams) {
                    bfbp::VectorTraceSource source(s.records);
                    StaticPredictor predictor;
                    const uint64_t t0 = nowNs();
                    bfbp::evaluate(source, predictor, options);
                    total += secondsSince(t0);
                }
                t.push_back(total);
            }
            return median(t);
        };
        const double plain = floorSeconds(false);
        const double perBranch = floorSeconds(true);
        m["evaluator.floor_records_per_s"] = {records / plain, "records/s"};
        m["evaluator.per_branch_ns_per_record"] = {
            (perBranch - plain) * 1e9 / records, "ns"};
    }

    {
        SpanScope span(&spans, "ledger", "predictors");
        const std::vector<std::string> paperSpecs =
            makeWorkload("paper-predictors", seed)->specs();
        bfbp::telemetry::Telemetry coreSink;
        for (const std::string &spec : allSpecs()) {
            LayerTimes times;
            for (const Stream &s : streams) {
                bfbp::VectorTraceSource source(s.records);
                TimedPredictor predictor(bfbp::createPredictor(spec), times);
                bfbp::evaluate(source, predictor);
                if (std::find(paperSpecs.begin(), paperSpecs.end(), spec) !=
                    paperSpecs.end()) {
                    predictor.emitTelemetry(coreSink);
                }
            }
            m["predictor." + spec + ".predict_ns"] = {
                times.predict.perCallNs(timer), "ns"};
            m["predictor." + spec + ".update_ns"] = {
                times.update.perCallNs(timer), "ns"};
        }
        for (const char *name :
             {"bst.to_non_biased", "bf_ghr.rs.inserts", "bf_ghr.rs.evictions",
              "bf_ghr.rs.prunes", "bf_neural.rs.misses",
              "bf_neural.rs.pushes"}) {
            m[name] = {static_cast<double>(coreSink.counterValue(name)),
                       "count"};
        }
        const double filtered = static_cast<double>(
            coreSink.counterValue("bf_neural.history.filtered_out"));
        const double inserted = static_cast<double>(
            coreSink.counterValue("bf_neural.history.rs_inserts"));
        m["bf_neural.history.filtered_out_share"] = {
            filtered / std::max(1.0, filtered + inserted), "ratio"};
    }

    {
        SpanScope span(&spans, "ledger", "core");
        uint64_t bstNs = 0, pushNs = 0, commitNs = 0, foldNs = 0;
        uint64_t conds = 0, pushes = 0, folds = 0, sink = 0;
        const bfbp::TageConfig geometry = bfbp::bfTageConfig(10);
        for (const Stream &s : streams) {
            const CondStream c = conditionals(s);
            const size_t n = c.pc.size();
            conds += n;

            bfbp::BranchStatusTable bst;
            bfbp::RecencyStack rs(48);
            bfbp::SegmentedRecencyStacks stacks;
            for (size_t lo = 0; lo < n; lo += timedBlock) {
                const size_t hi = std::min(n, lo + timedBlock);
                uint64_t t0 = nowNs();
                for (size_t i = lo; i < hi; ++i)
                    sink += static_cast<uint64_t>(bst.train(c.pc[i],
                                                            c.taken[i]));
                bstNs += nowNs() - t0;

                t0 = nowNs();
                for (size_t i = lo; i < hi; ++i) {
                    if (c.nonBiased[i]) {
                        rs.push(c.addrHash[i], c.taken[i], i + 1);
                        ++pushes;
                    }
                }
                pushNs += nowNs() - t0;

                t0 = nowNs();
                for (size_t i = lo; i < hi; ++i)
                    stacks.commit(c.addrHash[i], c.taken[i], c.nonBiased[i]);
                commitNs += nowNs() - t0;

                // BF-TAGE refolds every table three ways per commit.
                t0 = nowNs();
                for (size_t t = 0; t < geometry.numTables(); ++t) {
                    const unsigned len = geometry.historyLengths[t];
                    const unsigned tag = geometry.tagBits[t];
                    sink ^= stacks.fold(len, geometry.logSizes[t]);
                    sink ^= stacks.fold(len, tag);
                    sink ^= stacks.fold(len, tag > 1 ? tag - 1 : 1);
                    folds += 3;
                }
                foldNs += nowNs() - t0;
            }
            sink += rs.size();
        }
        m["core.bst.train_ns"] = {static_cast<double>(bstNs) / conds, "ns"};
        m["core.recency_stack.push_ns"] = {
            static_cast<double>(pushNs) / std::max<uint64_t>(1, pushes), "ns"};
        m["core.segmented_rs.commit_ns"] = {
            static_cast<double>(commitNs) / conds, "ns"};
        m["core.segmented_rs.fold_ns"] = {static_cast<double>(foldNs) / folds,
                                          "ns"};

        // ISL-TAGE-10's folded histories: three per tagged table over
        // one outcome register, advanced once per conditional branch.
        const bfbp::TageConfig isl = bfbp::conventionalTageConfig(10);
        uint64_t updateNs = 0;
        uint64_t updates = 0;
        for (const Stream &s : streams) {
            const CondStream c = conditionals(s);
            std::vector<bfbp::FoldedHistory> foldsOf;
            for (size_t t = 0; t < isl.numTables(); ++t) {
                const unsigned len = isl.historyLengths[t];
                const unsigned tag = isl.tagBits[t];
                foldsOf.emplace_back(len, isl.logSizes[t]);
                foldsOf.emplace_back(len, tag);
                foldsOf.emplace_back(len, tag > 1 ? tag - 1 : 1);
            }
            bfbp::HistoryRegister hist;
            const size_t n = c.taken.size();
            for (size_t lo = 0; lo < n; lo += timedBlock) {
                const size_t hi = std::min(n, lo + timedBlock);
                const uint64_t t0 = nowNs();
                for (size_t i = lo; i < hi; ++i) {
                    for (bfbp::FoldedHistory &f : foldsOf)
                        f.update(c.taken[i], hist[f.length() - 1]);
                    hist.push(c.taken[i]);
                }
                updateNs += nowNs() - t0;
                updates += (hi - lo) * foldsOf.size();
            }
            for (const bfbp::FoldedHistory &f : foldsOf)
                sink ^= f.value();
        }
        m["util.folded_history.update_ns"] = {
            static_cast<double>(updateNs) / updates, "ns"};
        observed = sink;
    }

    {
        // Figure-suite jobs (isl-tage-7 over each stream), sink armed
        // and disarmed alternately; the jobs are short, so more
        // repeats.
        SpanScope span(&spans, "ledger", "telemetry");
        std::vector<double> armed, disarmed;
        for (int i = 0; i < 2 * repeats; ++i) {
            for (bool arm : {false, true}) {
                double seconds = 0.0;
                for (const Stream &s : streams) {
                    bfbp::VectorTraceSource source(s.records);
                    auto predictor = bfbp::createPredictor("isl-tage-7");
                    bfbp::telemetry::Telemetry sink;
                    bfbp::EvalOptions options;
                    options.telemetry = arm ? &sink : nullptr;
                    const uint64_t t0 = nowNs();
                    bfbp::evaluate(source, *predictor, options);
                    seconds += secondsSince(t0);
                }
                (arm ? armed : disarmed).push_back(seconds);
            }
        }
        m["telemetry.overhead_ratio"] = {median(armed) / median(disarmed),
                                         "ratio"};
    }
    return m;
}

} // namespace perfbench
