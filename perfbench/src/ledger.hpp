/**
 * @file
 * The layer ledger: each library layer measured on its own, through
 * its public calls, over the paper-predictors streams (SPEC17, SPEC03
 * and SERV3 under the workload seed, at a small scale). The traced run
 * of every workload reports it, so each layer figure is present on
 * every workload.
 */

#ifndef PERFBENCH_LEDGER_HPP
#define PERFBENCH_LEDGER_HPP

#include <cstdint>
#include <filesystem>
#include <vector>

#include "probes.hpp"

namespace perfbench
{

/** Measures every layer; archives go under @p dir, one span per
 *  section goes to @p spans. */
Metrics runLedger(uint64_t seed, const std::filesystem::path &dir,
                  const TimerCost &timer, std::vector<Span> &spans);

/**
 * Measures TimerCost by evaluating one stream with the static
 * predictor, timed and untimed: the timed static predict/update
 * intervals are the inside part, the rest of the slowdown the outside.
 */
TimerCost calibrateTimer();

} // namespace perfbench

#endif // PERFBENCH_LEDGER_HPP
