// Tests for the observability layer: span tracing on the simulated clock,
// the metrics registry, the Chrome trace exporter, and the end-to-end
// guarantees the rest of the repo relies on — per-invocation breakdowns that
// sum exactly, and bit-identical results with tracing on or off.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "bench/alloc_count.h"
#include "src/core/fireworks.h"
#include "src/core/platform.h"
#include "src/lang/json.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/simcore/simulation.h"
#include "src/workloads/faasdom.h"
#include "tests/test_util.h"

namespace fwobs {
namespace {

using fwsim::Co;
using fwsim::Delay;
using fwsim::Simulation;
using fwtest::RunSync;
using fwtest::RunSyncVoid;
using namespace fwbase::literals;

Tracer MakeTracer(Simulation& sim) {
  return Tracer([&sim] { return sim.Now(); });
}

// ---------------------------------------------------------------------------
// Tracer.
// ---------------------------------------------------------------------------

Co<void> NestedSpans(Simulation& sim, Tracer& tracer) {
  ScopedSpan outer(&tracer, "outer", "test");
  co_await Delay(sim, 1_ms);
  {
    ScopedSpan inner(&tracer, "inner", "test");
    co_await Delay(sim, 2_ms);
  }
  co_await Delay(sim, 3_ms);
}

TEST(TracerTest, NestedSpansRecordSimTimestampsAndParents) {
  Simulation sim;
  Tracer tracer = MakeTracer(sim);
  tracer.Enable();
  RunSyncVoid(sim, NestedSpans(sim, tracer));

  ASSERT_EQ(tracer.span_count(), 2u);
  const Span* outer = tracer.FindSpan("outer");
  const Span* inner = tracer.FindSpan("inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);

  EXPECT_TRUE(outer->is_root());
  EXPECT_EQ(inner->parent_id(), outer->id());
  EXPECT_TRUE(outer->finished());
  EXPECT_TRUE(inner->finished());

  EXPECT_EQ(outer->start(), fwbase::SimTime::Zero());
  EXPECT_EQ(inner->start(), fwbase::SimTime::Zero() + 1_ms);
  EXPECT_EQ(inner->end(), fwbase::SimTime::Zero() + 3_ms);
  EXPECT_EQ(outer->end(), fwbase::SimTime::Zero() + 6_ms);
  EXPECT_EQ(outer->duration(), 6_ms);
  EXPECT_EQ(inner->duration(), 2_ms);
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Simulation sim;
  Tracer tracer = MakeTracer(sim);
  ASSERT_FALSE(tracer.enabled());

  EXPECT_EQ(tracer.StartSpan("ignored"), nullptr);
  {
    ScopedSpan span(&tracer, "also.ignored");
    EXPECT_EQ(span.get(), nullptr);
    span.SetAttribute("k", std::string("v"));  // Null-safe.
  }
  EXPECT_EQ(tracer.span_count(), 0u);
  EXPECT_EQ(tracer.CurrentSpan(), nullptr);
}

TEST(TracerTest, DisabledSpanAllocatesNothing) {
  Simulation sim;
  Tracer tracer = MakeTracer(sim);
  // All three outgrow std::string's in-place buffer (15 bytes), so building
  // any of them as a string would allocate.
  constexpr char kName[] = "fireworks.invoke.params.encode";
  static_assert(sizeof(kName) - 1 == 30);
  const std::string value(40, 'v');
  const fwbench::AllocCounts before = fwbench::CurrentAllocCounts();
  {
    ScopedSpan span(&tracer, kName, "fireworks.instrumentation");
    span.SetAttribute("function", value);
    span.SetAttribute("bytes", static_cast<uint64_t>(4096));
  }
  EXPECT_EQ(fwbench::CurrentAllocCounts().allocs - before.allocs, 0u);
}

TEST(TracerTest, ScopedSpanKeepsFractionalAttributes) {
  // A double used to convert to the integer overload: a burn rate of 14.4
  // was recorded as "14".
  Simulation sim;
  Tracer tracer = MakeTracer(sim);
  tracer.Enable();
  {
    ScopedSpan span(&tracer, "slo.alert", "slo");
    span.SetAttribute("burn_fast", 14.4);
  }
  const Span* span = tracer.FindSpan("slo.alert");
  ASSERT_NE(span, nullptr);
  ASSERT_EQ(span->attributes().size(), 1u);
  EXPECT_EQ(span->attributes()[0].second, "14.4");
}

TEST(TracerTest, ScopedSpanEndIsIdempotentAndGetSurvivesEnd) {
  Simulation sim;
  Tracer tracer = MakeTracer(sim);
  tracer.Enable();

  ScopedSpan span(&tracer, "work");
  sim.Schedule(5_ms, [] {});
  sim.Run();
  span.End();
  ASSERT_NE(span.get(), nullptr);
  const fwbase::SimTime first_end = span.get()->end();
  EXPECT_EQ(first_end, fwbase::SimTime::Zero() + 5_ms);

  sim.Schedule(5_ms, [] {});
  sim.Run();
  span.End();  // Second End must not move the recorded end time.
  EXPECT_EQ(span.get()->end(), first_end);
  EXPECT_TRUE(span.get()->finished());
}

TEST(TracerTest, OutOfOrderEndKeepsParentLinks) {
  Simulation sim;
  Tracer tracer = MakeTracer(sim);
  tracer.Enable();

  Span* a = tracer.StartSpan("a");
  Span* b = tracer.StartSpan("b");
  tracer.EndSpan(a);  // Outer ends first (interleaved coroutines can do this).
  EXPECT_EQ(tracer.CurrentSpan(), b);
  tracer.EndSpan(b);
  EXPECT_EQ(tracer.CurrentSpan(), nullptr);
  EXPECT_EQ(b->parent_id(), a->id());
}

TEST(TracerTest, ChildrenOfReturnsDirectChildrenInStartOrder) {
  Simulation sim;
  Tracer tracer = MakeTracer(sim);
  tracer.Enable();

  Span* root = tracer.StartSpan("root");
  Span* c1 = tracer.StartSpan("c1");
  tracer.EndSpan(c1);
  Span* c2 = tracer.StartSpan("c2");
  Span* grandchild = tracer.StartSpan("g");
  tracer.EndSpan(grandchild);
  tracer.EndSpan(c2);
  tracer.EndSpan(root);

  const auto children = tracer.ChildrenOf(root->id());
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(children[0]->name(), "c1");
  EXPECT_EQ(children[1]->name(), "c2");
  EXPECT_EQ(tracer.ChildrenOf(c2->id()).size(), 1u);
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterGaugeHistogramRoundTrip) {
  MetricsRegistry registry;
  registry.GetCounter("test.events.count").Increment();
  registry.GetCounter("test.events.count").Increment(4);
  registry.GetGauge("test.depth").Set(3.0);
  registry.GetGauge("test.depth").Add(-1.0);
  Histogram& h = registry.GetHistogram("test.latency.micros");
  h.Observe(10);
  h.Observe(20);
  h.Observe(30);

  EXPECT_EQ(registry.CounterValue("test.events.count"), 5u);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("test.depth"), 2.0);
  const Histogram* found = registry.FindHistogram("test.latency.micros");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->count(), 3u);
  EXPECT_DOUBLE_EQ(found->stats().mean(), 20.0);
  EXPECT_EQ(registry.size(), 3u);
}

TEST(MetricsTest, AbsentInstrumentsReadAsZero) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.CounterValue("never.touched.count"), 0u);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("never.touched"), 0.0);
  EXPECT_EQ(registry.FindHistogram("never.touched.micros"), nullptr);
  EXPECT_EQ(registry.size(), 0u);
}

TEST(MetricsTest, LabelsDistinguishFamilyMembers) {
  MetricsRegistry registry;
  registry.GetCounter("bus.produce.count", "topic-a").Increment(2);
  registry.GetCounter("bus.produce.count", "topic-b").Increment(7);
  EXPECT_EQ(registry.CounterValue("bus.produce.count", "topic-a"), 2u);
  EXPECT_EQ(registry.CounterValue("bus.produce.count", "topic-b"), 7u);
  EXPECT_EQ(registry.CounterValue("bus.produce.count"), 0u);
}

TEST(MetricsTest, ResetZeroesValuesButKeepsRegistrations) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("test.count");
  c.Increment(9);
  registry.GetHistogram("test.micros").Observe(100);
  registry.Reset();

  EXPECT_EQ(registry.size(), 2u);         // Registrations survive.
  EXPECT_EQ(registry.CounterValue("test.count"), 0u);
  ASSERT_NE(registry.FindHistogram("test.micros"), nullptr);
  EXPECT_EQ(registry.FindHistogram("test.micros")->count(), 0u);
  c.Increment();                           // Outstanding pointer still valid.
  EXPECT_EQ(registry.CounterValue("test.count"), 1u);
}

TEST(MetricsTest, ToTextListsEveryInstrument) {
  MetricsRegistry registry;
  registry.GetCounter("a.count").Increment(3);
  registry.GetGauge("b.depth").Set(1.5);
  registry.GetHistogram("c.micros").Observe(42);
  const std::string text = registry.ToText();
  EXPECT_NE(text.find("a.count"), std::string::npos);
  EXPECT_NE(text.find("b.depth"), std::string::npos);
  EXPECT_NE(text.find("c.micros"), std::string::npos);
}

TEST(MetricsTest, HistogramTextPinsQuantileRendering) {
  // 0, 10, ..., 100: every rendered quantile lands exactly on a rank, so the
  // full line can be pinned byte for byte (linear-interpolation Percentile:
  // p50 = 50, p95 = 95, p99 = 99).
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("lat.ms");
  for (int v = 0; v <= 100; v += 10) {
    h.Observe(v);
  }
  registry.GetHistogram("empty.ms");
  EXPECT_EQ(registry.ToText(),
            "histogram empty.ms" + std::string(36, ' ') + " count=0\n" +
                "histogram lat.ms" + std::string(38, ' ') +
                " count=11 min=0.0 mean=50.0 p50=50.0 p95=95.0 p99=99.0 max=100.0\n");
}

// ---------------------------------------------------------------------------
// End to end against the Fireworks platform.
// ---------------------------------------------------------------------------

fwlang::FunctionSource TestFn() {
  return fwwork::MakeFaasdom(fwwork::FaasdomBench::kFact, fwlang::Language::kNodeJs);
}

fwcore::InvocationResult InstallAndInvoke(fwcore::HostEnv& env) {
  fwcore::FireworksPlatform platform(env);
  const auto fn = TestFn();
  auto installed = RunSync(env.sim(), platform.Install(fn));
  EXPECT_TRUE(installed.ok());
  auto invoked =
      RunSync(env.sim(), platform.Invoke(fn.name, "{}", fwcore::InvokeOptions()));
  EXPECT_TRUE(invoked.ok());
  return *invoked;
}

TEST(ObsEndToEndTest, InvokeChildSpansSumExactlyToTotal) {
  fwcore::HostEnv env;
  env.tracer().Enable();
  const fwcore::InvocationResult result = InstallAndInvoke(env);

  ASSERT_NE(result.root_span, nullptr);
  EXPECT_EQ(result.root_span->name(), "fireworks.invoke");
  EXPECT_TRUE(result.root_span->finished());
  EXPECT_EQ(result.root_span->duration().nanos(), result.total.nanos());

  const auto children = env.tracer().ChildrenOf(result.root_span->id());
  ASSERT_FALSE(children.empty());
  int64_t sum_nanos = 0;
  for (const Span* child : children) {
    EXPECT_TRUE(child->finished()) << child->name();
    sum_nanos += child->duration().nanos();
  }
  // The invoke children are contiguous windows, so the breakdown is exact.
  EXPECT_EQ(sum_nanos, result.total.nanos());
}

TEST(ObsEndToEndTest, SubsystemCountersFireDuringOneInvocation) {
  fwcore::HostEnv env;
  const fwcore::InvocationResult result = InstallAndInvoke(env);
  EXPECT_GT(result.total, fwbase::Duration::Zero());

  // Restoring the snapshot faults pages copy-on-write; the parameter protocol
  // produces to and consumes from the instance's topic. Metrics record even
  // with tracing disabled.
  EXPECT_GT(env.metrics().CounterValue("mem.fault.cow.count"), 0u);
  EXPECT_GT(env.metrics().CounterValue("bus.produce.count"), 0u);
  EXPECT_GT(env.metrics().CounterValue("bus.consume.count"), 0u);
  EXPECT_GT(env.metrics().CounterValue("hv.vm.restore.count"), 0u);
}

TEST(ObsEndToEndTest, ChromeTraceExportIsValidJson) {
  fwcore::HostEnv env;
  env.tracer().Enable();
  InstallAndInvoke(env);

  const std::string json = ChromeTraceJson(env.tracer(), "fireworks:test");
  auto parsed = fwlang::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  ASSERT_TRUE(parsed->is_object());

  const fwlang::JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->AsArray().empty());

  size_t complete_events = 0;
  for (const fwlang::JsonValue& event : events->AsArray()) {
    ASSERT_TRUE(event.is_object());
    const fwlang::JsonValue* ph = event.Find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(event.Find("name"), nullptr);
    ASSERT_NE(event.Find("pid"), nullptr);
    if (ph->AsString() == "X") {
      ++complete_events;
      ASSERT_NE(event.Find("ts"), nullptr);
      ASSERT_NE(event.Find("dur"), nullptr);
    }
  }
  EXPECT_GT(complete_events, 0u);
}

TEST(ObsEndToEndTest, ChromeTraceEscapesHostileSpanNames) {
  // Span names and attribute values flow from user-controlled strings
  // (function names, payload fragments) straight into the exported JSON.
  // Quotes, backslashes, control characters, and — the case that actually
  // shipped broken — stray high-bit bytes that are not valid UTF-8 must all
  // come out escaped, never raw.
  Simulation sim;
  Tracer tracer = MakeTracer(sim);
  tracer.Enable();
  {
    ScopedSpan hostile(&tracer, "quote\" back\\slash \n\t\x01", "cat\"egory");
    hostile.SetAttribute("key\"", std::string("raw\x80\xff bytes"));
    // Valid multibyte UTF-8 must pass through unmangled.
    ScopedSpan utf8(&tracer, "snapshot \xcf\x80", "test");
  }

  const std::string json = ChromeTraceJson(tracer, "hostile:test");
  // Structurally valid...
  auto parsed = fwlang::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  // ...and valid UTF-8: the only high-bit bytes left are the π we put in.
  for (size_t i = 0; i < json.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(json[i]);
    if (c >= 0x80) {
      ASSERT_LT(i + 1, json.size());
      EXPECT_TRUE((c == 0xcf && static_cast<unsigned char>(json[i + 1]) == 0x80))
          << "raw byte 0x" << std::hex << static_cast<int>(c) << " at offset " << i;
      ++i;
    }
  }
  EXPECT_NE(json.find("quote\\\" back\\\\slash \\n\\t\\u0001"), std::string::npos);
  EXPECT_NE(json.find("raw\\u0080\\u00ff bytes"), std::string::npos);
  EXPECT_NE(json.find("snapshot \xcf\x80"), std::string::npos);
}

TEST(ObsEndToEndTest, TracingDoesNotChangeResults) {
  fwcore::HostEnv traced_env;
  traced_env.tracer().Enable();
  const fwcore::InvocationResult traced = InstallAndInvoke(traced_env);

  fwcore::HostEnv untraced_env;
  const fwcore::InvocationResult untraced = InstallAndInvoke(untraced_env);

  // Recording never advances the clock or touches the RNG, so the runs are
  // bit-identical.
  EXPECT_EQ(traced.startup.nanos(), untraced.startup.nanos());
  EXPECT_EQ(traced.exec.nanos(), untraced.exec.nanos());
  EXPECT_EQ(traced.others.nanos(), untraced.others.nanos());
  EXPECT_EQ(traced.total.nanos(), untraced.total.nanos());

  EXPECT_EQ(untraced.root_span, nullptr);
  EXPECT_EQ(untraced_env.tracer().span_count(), 0u);
  EXPECT_GT(traced_env.tracer().span_count(), 0u);
}

}  // namespace
}  // namespace fwobs
