#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

namespace perfbench {

const char*
layerName(Layer layer)
{
    switch (layer) {
      case Layer::kCell: return "harness.cell";
      case Layer::kSimSetup: return "sim.setup";
      case Layer::kSimRun: return "sim.run";
      case Layer::kRaplOnTick: return "rapl.on_tick";
      case Layer::kCappingOnStart: return "capping.on_start";
      case Layer::kCappingOnTick: return "capping.on_tick";
      case Layer::kLoadOnTick: return "load.on_tick";
      case Layer::kLoadFinish: return "load.finish";
      case Layer::kPeriod: return "cluster.period";
      case Layer::kClusterControl: return "cluster.control";
      case Layer::kClusterStep: return "cluster.step";
      case Layer::kCount: break;
    }
    return "?";
}

double
nowUs()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point origin = Clock::now();
    return std::chrono::duration<double, std::micro>(Clock::now() - origin)
        .count();
}

int
UnitTrace::open(Layer layer, int parent, double beginUs)
{
    spans_.push_back({layer, parent, unit_, beginUs, beginUs, 1, 0.0});
    return int(spans_.size() - 1);
}

void
UnitTrace::close(int span, double endUs)
{
    Span& s = spans_[size_t(span)];
    s.endUs = endUs;
    s.busyUs = endUs - s.beginUs;
}

int
UnitTrace::add(Layer layer, int parent, double beginUs, double endUs)
{
    const int span = open(layer, parent, beginUs);
    close(span, endUs);
    return span;
}

int
UnitTrace::group(Layer layer, int parent)
{
    spans_.push_back({layer, parent, unit_, 0.0, 0.0, 0, 0.0});
    return int(spans_.size() - 1);
}

void
UnitTrace::addCall(int span, double beginUs, double endUs)
{
    Span& s = spans_[size_t(span)];
    if (s.calls == 0)
        s.beginUs = beginUs;
    s.endUs = endUs;
    ++s.calls;
    s.busyUs += endUs - beginUs;
}

std::vector<double>
selfTimes(const std::vector<Span>& spans)
{
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].busyUs;
    for (const Span& s : spans) {
        if (s.parent >= 0)
            self[size_t(s.parent)] -= s.busyUs;
    }
    return self;
}

double
coverage(const std::vector<Span>& spans, size_t root)
{
    double children = 0.0;
    for (const Span& s : spans) {
        if (s.parent == int32_t(root))
            children += s.busyUs;
    }
    const double busy = spans[root].busyUs;
    return busy > 0.0 ? children / busy : 1.0;
}

LayerTotals
totals(const std::vector<UnitTrace>& units)
{
    LayerTotals out;
    for (const UnitTrace& unit : units) {
        const std::vector<Span>& spans = unit.spans();
        const std::vector<double> self = selfTimes(spans);
        for (size_t i = 0; i < spans.size(); ++i) {
            const size_t layer = size_t(spans[i].layer);
            out.calls[layer] += spans[i].calls;
            out.busyUs[layer] += spans[i].busyUs;
            out.selfUs[layer] += self[i];
            if (spans[i].parent < 0)
                out.minCoverage =
                    std::min(out.minCoverage, coverage(spans, i));
        }
    }
    return out;
}

bool
writeSpansCsv(const std::string& path, const std::vector<UnitTrace>& units)
{
    std::unique_ptr<FILE, int (*)(FILE*)> file(std::fopen(path.c_str(), "w"),
                                               &std::fclose);
    if (!file)
        return false;
    std::fprintf(file.get(), "unit,span,layer,parent,begin_us,end_us,calls,"
                             "busy_us,self_us\n");
    for (const UnitTrace& unit : units) {
        const std::vector<Span>& spans = unit.spans();
        const std::vector<double> self = selfTimes(spans);
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span& s = spans[i];
            std::fprintf(file.get(), "%u,%zu,%s,%d,%.3f,%.3f,%llu,%.3f,%.3f\n",
                         s.unit, i, layerName(s.layer), s.parent, s.beginUs,
                         s.endUs, static_cast<unsigned long long>(s.calls),
                         s.busyUs, self[i]);
        }
    }
    return std::fflush(file.get()) == 0 && !std::ferror(file.get());
}

}  // namespace perfbench
