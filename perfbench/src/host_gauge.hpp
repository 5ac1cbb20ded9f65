/**
 * @file
 * A fixed reference kernel that measures how fast the host runs right
 * now, so pass timings can be stated at a reference host speed.
 *
 * On a shared VM the same pass of the same code can take 1.0x or 1.7x
 * as long from one second to the next (other tenants, SMT siblings,
 * shared caches), and such a state can last minutes. The gauge is a
 * small tagged-table predictor written in the benchmark itself:
 * hashing, table lookups and updates, data-dependent branches, the mix
 * of work a simulated predictor does. Its speed follows the host's the
 * way a pass's speed does (on paper-predictors its swings matched the
 * pass rate's in size, correlation 0.83; a latency-bound loop barely
 * moved), while no change to the library can change the gauge.
 * Dividing a pass's rate by the gauge's relative speed around it
 * removes most of the host's drift and keeps every code change.
 */

#ifndef PERFBENCH_HOST_GAUGE_HPP
#define PERFBENCH_HOST_GAUGE_HPP

#include <cstdint>
#include <vector>

namespace perfbench
{

class HostGauge
{
  public:
    /** Gauge iterations per second of one thread that count as host
     *  speed 1: the kernel's typical speed on a 4-vCPU 2.1 GHz Xeon
     *  VM. A constant, so adjusted figures compare across commits. */
    static constexpr double referenceSpeed = 30e6;

    /** Can measure with up to @p threads threads at once. */
    explicit HostGauge(unsigned threads);

    /** Runs the kernel once on each of @p threads threads at once (as
     *  many as the measured work keeps busy); returns their mean speed
     *  relative to referenceSpeed (above 1: faster than reference). */
    double measure(unsigned threads);

  private:
    struct alignas(64) Tables
    {
        std::vector<int8_t> counters;
        std::vector<uint16_t> tags;
        uint64_t rng = 0;
        uint64_t history = 0;
        uint64_t mispredictions = 0; //!< Of the last run, kept as output.
    };

    /** Runs @p iterations of the kernel over @p t; returns its
     *  mispredictions. */
    static uint64_t run(Tables &t, int iterations);

    std::vector<Tables> perThread;
};

} // namespace perfbench

#endif // PERFBENCH_HOST_GAUGE_HPP
