#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/**
 * The layers the benchmark times from outside, by wrapping calls to each
 * layer's public functions. machine, telemetry and workload run inside
 * Platform::run and have no span of their own: they are part of sim.run's
 * self time.
 */
enum class Layer : uint8_t {
    kCell,            ///< harness: one experiment cell (unit root)
    kSimSetup,        ///< sim: Platform constructor + warmStart
    kSimRun,          ///< sim: one Platform::run call
    kRaplOnTick,      ///< rapl: RaplController::onTick
    kCappingOnStart,  ///< capping: Governor::onStart
    kCappingOnTick,   ///< capping: Governor::onTick
    kLoadOnTick,      ///< load: LoadDriver::onTick
    kLoadFinish,      ///< load: LoadDriver::finish
    kPeriod,          ///< cluster: one BudgetTree::run call (unit root)
    kClusterControl,  ///< cluster: the period's controlWallSamples() entry
    kClusterStep,     ///< cluster: the period's stepWallSamples() entry
    kCount,
};

inline constexpr size_t kLayerCount = size_t(Layer::kCount);

const char* layerName(Layer layer);

/** Microseconds on the steady clock since the first call in the process. */
double nowUs();

/**
 * One span: a single layer call, or -- for calls made every simulated
 * tick -- a group folding every call of one layer under one parent span
 * (calls > 1, begin/end = first call's begin and last call's end, busy =
 * summed call durations). Per-tick calls are timed one by one but folded,
 * because a 220 s cell makes ~440k of them.
 */
struct Span
{
    Layer layer = Layer::kCell;
    int32_t parent = -1;  ///< index within the unit's spans; -1 = root
    uint32_t unit = 0;    ///< cell index or period number
    double beginUs = 0.0;
    double endUs = 0.0;
    uint64_t calls = 0;
    double busyUs = 0.0;
};

/**
 * The spans of one unit (a cell or a period), recorded on one thread.
 * Every child lies inside its parent and siblings never overlap, so a
 * span's self time is its busy time minus its children's busy time.
 */
class UnitTrace
{
  public:
    explicit UnitTrace(uint32_t unit) : unit_(unit) {}

    /** Open a single-call span; returns its index. */
    int open(Layer layer, int parent, double beginUs);
    void close(int span, double endUs);

    /** Add a finished single-call span (times measured by the caller). */
    int add(Layer layer, int parent, double beginUs, double endUs);

    /** Open an empty per-call group under @p parent. */
    int group(Layer layer, int parent);
    /** Fold one call into group @p span. */
    void addCall(int span, double beginUs, double endUs);

    const std::vector<Span>& spans() const { return spans_; }
    uint32_t unit() const { return unit_; }

  private:
    uint32_t unit_;
    std::vector<Span> spans_;
};

/** Per-layer totals over a set of units. */
struct LayerTotals
{
    std::array<uint64_t, kLayerCount> calls{};
    std::array<double, kLayerCount> busyUs{};
    std::array<double, kLayerCount> selfUs{};
    /** Lowest share of a unit root's busy time its children account for. */
    double minCoverage = 1.0;
};

/** Self time of every span of @p spans (busy minus children's busy). */
std::vector<double> selfTimes(const std::vector<Span>& spans);

/**
 * Share of root span @p root's busy time covered by its direct children;
 * 1 for a root without duration.
 */
double coverage(const std::vector<Span>& spans, size_t root);

/** Fold the spans of @p units into per-layer totals. */
LayerTotals totals(const std::vector<UnitTrace>& units);

/**
 * Write every span as CSV (unit, span, layer, parent, begin_us, end_us,
 * calls, busy_us, self_us). Returns false when the file cannot be
 * written.
 */
bool writeSpansCsv(const std::string& path,
                   const std::vector<UnitTrace>& units);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
