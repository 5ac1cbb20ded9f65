#include "host_gauge.hpp"

#include <algorithm>
#include <thread>

#include "probes.hpp"

namespace perfbench
{

namespace
{

constexpr int tableCount = 8;
constexpr uint32_t tableEntries = 1u << 12;

/** Kernel iterations of one reading per thread: about 10 ms at reference
 *  speed on one thread. Concurrent threads land on vCPUs whose speeds
 *  differ, so their readings scatter more and run about 33 ms. */
int
iterationsFor(size_t threads)
{
    return threads > 1 ? 1000000 : 300000;
}

} // anonymous namespace

HostGauge::HostGauge(unsigned threads) : perThread(std::max(1u, threads))
{
    for (size_t i = 0; i < perThread.size(); ++i) {
        Tables &t = perThread[i];
        t.counters.assign(tableCount * tableEntries, 0);
        t.tags.assign(tableCount * tableEntries, 0);
        t.rng = 0x9E3779B97F4A7C15ULL * (i + 1);
    }
    measure(threads); // Warms the tables and the code.
}

uint64_t
HostGauge::run(Tables &t, int iterations)
{
    // Locals, so threads never write to a shared cache line.
    uint64_t rng = t.rng, history = t.history, mispredictions = 0;
    int8_t *counters = t.counters.data();
    uint16_t *tags = t.tags.data();
    for (int i = 0; i < iterations; ++i) {
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        const uint32_t pc = static_cast<uint32_t>(rng >> 52) * 4;
        const bool taken = ((rng >> 33) & 15) < 11;
        uint32_t index[tableCount];
        uint16_t tag[tableCount];
        int provider = -1;
        int vote = 0;
        for (int k = 0; k < tableCount; ++k) {
            const uint64_t h =
                history & ((uint64_t{1} << (4 + 7 * k)) - 1);
            const uint64_t f = h ^ (h >> 12) ^ (h >> 24) ^ (h >> 36) ^
                (h >> 48);
            index[k] = k * tableEntries +
                static_cast<uint32_t>((pc ^ (pc >> 5) ^ f ^ (f >> 7) * (k + 1)) &
                                      (tableEntries - 1));
            tag[k] = static_cast<uint16_t>((pc * 0x9E37u) ^ (f >> 3) ^ k);
            if (tags[index[k]] == tag[k]) {
                provider = k;
                vote = counters[index[k]];
            }
        }
        const bool predicted = provider < 0 ? (pc & 8) != 0 : vote >= 0;
        if (provider >= 0) {
            int8_t &c = counters[index[provider]];
            if (taken && c < 3)
                ++c;
            else if (!taken && c > -4)
                --c;
        }
        if (predicted != taken) {
            const int k = static_cast<int>((rng >> 20) % tableCount);
            if (k > provider) {
                tags[index[k]] = tag[k];
                counters[index[k]] = taken ? 0 : -1;
            }
            ++mispredictions;
        }
        history = (history << 1) | (taken ? 1 : 0);
    }
    t.rng = rng;
    t.history = history;
    return mispredictions;
}

double
HostGauge::measure(unsigned threads)
{
    // Each thread times itself, so waking an idle vCPU does not count.
    const size_t n = std::clamp<size_t>(threads, 1, perThread.size());
    const int iterations = iterationsFor(n);
    std::vector<double> speeds(n);
    auto timedRun = [this, &speeds, iterations](size_t i) {
        const uint64_t t0 = nowNs();
        perThread[i].mispredictions = run(perThread[i], iterations);
        speeds[i] = static_cast<double>(iterations) / secondsSince(t0) /
            referenceSpeed;
    };
    {
        std::vector<std::jthread> helpers; // Joined when the scope ends.
        for (size_t i = 1; i < n; ++i)
            helpers.emplace_back(timedRun, i);
        timedRun(0);
    }
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
        observed = observed + perThread[i].mispredictions;
        sum += speeds[i];
    }
    return sum / static_cast<double>(n);
}

} // namespace perfbench
