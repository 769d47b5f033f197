// Unit tests for the observability layer: events and their JSONL
// round-trip, counters, spans, sinks, and the three recorders
// (ExecRecorder / McRecorder / PagingRecorder), including the disabled
// (no-recorder) path of the symbolic engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/exec.hpp"
#include "obs/counters.hpp"
#include "obs/event.hpp"
#include "obs/jsonl.hpp"
#include "obs/recorder.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "profile/worst_case.hpp"
#include "util/check.hpp"

namespace cadapt::obs {
namespace {

// ---------------------------------------------------------------- events

TEST(Event, BuilderAndTypedLookups) {
  Event e("box");
  e.u64("s", 8).i64("delta", -3).f64("ratio", 1.5).flag("ok", true).str(
      "tag", "scan");
  EXPECT_EQ(e.type, "box");
  ASSERT_EQ(e.fields.size(), 5u);
  EXPECT_EQ(e.u64_or("s", 0), 8u);
  EXPECT_EQ(e.f64_or("ratio", 0.0), 1.5);
  EXPECT_TRUE(e.flag_or("ok", false));
  EXPECT_EQ(e.str_or("tag", ""), "scan");
  // Fallbacks for absent keys.
  EXPECT_EQ(e.u64_or("missing", 7), 7u);
  EXPECT_EQ(e.f64_or("missing", 2.5), 2.5);
  EXPECT_FALSE(e.flag_or("missing", false));
  EXPECT_EQ(e.str_or("missing", "x"), "x");
  EXPECT_EQ(e.find("missing"), nullptr);
  EXPECT_NE(e.find("s"), nullptr);
}

TEST(Event, NonFiniteDoubleRejected) {
  Event e("x");
  EXPECT_THROW(e.f64("v", std::numeric_limits<double>::infinity()),
               util::CheckError);
  EXPECT_THROW(e.f64("v", std::numeric_limits<double>::quiet_NaN()),
               util::CheckError);
}

TEST(Event, WithoutRemovesAllMatchingFields) {
  Event e("trial");
  e.u64("trial", 0).u64("duration_ns", 5).u64("boxes", 9).u64("duration_ns",
                                                              6);
  e.without("duration_ns");
  ASSERT_EQ(e.fields.size(), 2u);
  EXPECT_EQ(e.fields[0].key, "trial");
  EXPECT_EQ(e.fields[1].key, "boxes");
}

TEST(Event, ToJsonlPutsTypeFirstAndPreservesFieldOrder) {
  Event e("box");
  e.u64("s", 4).u64("progress", 2);
  EXPECT_EQ(to_jsonl(e), "{\"type\":\"box\",\"s\":4,\"progress\":2}");
}

TEST(JsonEscape, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  // UTF-8 payload bytes pass through untouched.
  EXPECT_EQ(json_escape("π"), "π");
}

TEST(Jsonl, RoundTripsEveryScalarKind) {
  Event e("kitchen_sink");
  e.u64("big", std::numeric_limits<std::uint64_t>::max())
      .i64("neg", -42)
      .f64("pi", 3.140625)
      .f64("tiny", 1e-300)
      .flag("yes", true)
      .flag("no", false)
      .str("text", "line\nwith \"quotes\" and \\slashes\\ and π");
  Event back;
  std::string error;
  ASSERT_TRUE(parse_jsonl(to_jsonl(e), &back, &error)) << error;
  EXPECT_EQ(e, back);
  // And the re-encoding is byte-identical (stable diffable traces).
  EXPECT_EQ(to_jsonl(e), to_jsonl(back));
}

TEST(Jsonl, ParseRejectsMalformedLines) {
  Event out;
  std::string error;
  const char* bad[] = {
      "",                                  // empty
      "not json",                          // not an object
      "{\"type\":\"x\"",                   // unterminated object
      "{\"s\":1}",                         // missing type
      "{\"type\":\"x\",\"v\":null}",       // null rejected by design
      "{\"type\":\"x\",\"v\":[1,2]}",      // arrays rejected
      "{\"type\":\"x\",\"v\":{\"a\":1}}",  // nested objects rejected
      "{\"type\":\"x\",\"v\":1e}",         // malformed number
      "{\"type\":\"x\",\"v\":\"open}",     // unterminated string
      "{\"type\":\"x\"} trailing",         // trailing garbage
  };
  for (const char* line : bad) {
    error.clear();
    EXPECT_FALSE(parse_jsonl(line, &out, &error)) << line;
    EXPECT_FALSE(error.empty()) << line;
  }
}

TEST(Jsonl, IntegersParseBackAsIntegersNotDoubles) {
  Event out;
  ASSERT_TRUE(parse_jsonl("{\"type\":\"t\",\"u\":7,\"i\":-7,\"d\":7.0}", &out));
  ASSERT_NE(out.find("u"), nullptr);
  EXPECT_TRUE(std::holds_alternative<std::uint64_t>(*out.find("u")));
  EXPECT_TRUE(std::holds_alternative<std::int64_t>(*out.find("i")));
  EXPECT_TRUE(std::holds_alternative<double>(*out.find("d")));
  // f64_or widens integers; u64_or does not narrow doubles.
  EXPECT_EQ(out.f64_or("u", 0.0), 7.0);
  EXPECT_EQ(out.u64_or("d", 99), 99u);
}

// ----------------------------------------------------------- jsonl codec

TEST(FlatScanner, ViewsPointIntoTheLineUnlessEscaped) {
  const std::string line =
      R"({"type":"t", "plain":"abc","esc":"a\"b\u00e9","n":7,"neg":-2,)"
      R"("d":2.5,"b":false})";
  const auto inside = [&line](std::string_view v) {
    return v.data() >= line.data() && v.data() + v.size() <= line.data() +
                                                                line.size();
  };
  FlatScanner scan(line);
  std::string_view key;
  ScalarView value;
  ASSERT_TRUE(scan.next(key, value));
  EXPECT_EQ(key, "type");
  EXPECT_EQ(value.kind, ScalarView::Kind::kStr);
  EXPECT_EQ(value.str, "t");
  EXPECT_TRUE(inside(key));
  EXPECT_TRUE(inside(value.str));
  ASSERT_TRUE(scan.next(key, value));
  EXPECT_EQ(key, "plain");
  EXPECT_EQ(value.str, "abc");
  EXPECT_TRUE(inside(value.str));
  ASSERT_TRUE(scan.next(key, value));
  EXPECT_EQ(key, "esc");
  EXPECT_EQ(value.str, "a\"b\xc3\xa9");  // decoded into scratch
  EXPECT_FALSE(inside(value.str));
  ASSERT_TRUE(scan.next(key, value));
  EXPECT_EQ(value.kind, ScalarView::Kind::kU64);
  EXPECT_EQ(value.u64, 7u);
  ASSERT_TRUE(scan.next(key, value));
  EXPECT_EQ(value.kind, ScalarView::Kind::kI64);
  EXPECT_EQ(value.i64, -2);
  EXPECT_EQ(value.u64_or(9), 9u);  // negative: falls back
  ASSERT_TRUE(scan.next(key, value));
  EXPECT_EQ(value.kind, ScalarView::Kind::kF64);
  EXPECT_EQ(value.f64, 2.5);
  EXPECT_EQ(value.u64_or(9), 9u);  // never narrows a double
  ASSERT_TRUE(scan.next(key, value));
  EXPECT_EQ(value.kind, ScalarView::Kind::kBool);
  EXPECT_FALSE(value.flag);
  EXPECT_FALSE(scan.next(key, value));
  EXPECT_EQ(scan.error(), nullptr);
  EXPECT_FALSE(scan.next(key, value));  // stays finished
}

TEST(FlatScanner, StopsAtTheFirstSyntaxErrorAndNamesIt) {
  const std::pair<const char*, const char*> cases[] = {
      {"", "expected '{'"},
      {"{\"a\":1 \"b\":2}", "expected ',' or '}'"},
      {"{\"a\" 1}", "expected ':'"},
      {"{\"a\":1,}", "expected field name"},
      {"{\"a\":1} x", "trailing content after '}'"},
      {"{\"a\":\"\\q\"}", "malformed string"},
      {"{\"a\":tru}", "bad literal"},
      {"{\"a\":-}", "expected a value"},
      {"{\"a\":1e999}", "malformed number"},
      {"{\"a\":18446744073709551616}", "integer out of range"},
      {"{\"a\":null}", "null is not part of the schema"},
  };
  for (const auto& [line, message] : cases) {
    FlatScanner scan(line);
    std::string_view key;
    ScalarView value;
    while (scan.next(key, value)) {
    }
    ASSERT_NE(scan.error(), nullptr) << line;
    EXPECT_STREQ(scan.error(), message) << line;
  }
}

TEST(JsonlWriter, DoublesUseTheShortestRoundTripForm) {
  std::string out = "kept:";
  JsonlWriter(out)
      .begin("d")
      .f64("neg_zero", -0.0)
      .f64("denormal", 5e-324)
      .f64("big", 1e308)
      .f64("two", 2.0)
      .f64s("list", std::vector<double>{0.1, -0.0, 3.0})
      .end();
  EXPECT_EQ(out,
            "kept:{\"type\":\"d\",\"neg_zero\":-0,\"denormal\":5e-324,"
            "\"big\":1e+308,\"two\":2,\"list\":\"0.1 -0 3\"}");
  std::string buf;
  JsonlWriter writer(buf);
  EXPECT_THROW(writer.f64("v", std::numeric_limits<double>::infinity()),
               util::CheckError);
}

TEST(JsonlWriter, EscapesEveryByteLikeJsonEscapeAndRoundTrips) {
  std::string all;
  for (int b = 1; b < 256; ++b) all += static_cast<char>(b);
  std::string out;
  JsonlWriter(out).begin("s").str("k\"ey", all).end();
  EXPECT_EQ(out, "{\"type\":\"s\",\"" + json_escape("k\"ey") + "\":\"" +
                     json_escape(all) + "\"}");
  Event back;
  std::string error;
  ASSERT_TRUE(parse_jsonl(out, &back, &error)) << error;
  EXPECT_EQ(back.str_or("k\"ey", ""), all);
}

// --------------------------------------------------------------- counters

TEST(CounterSet, AddValueAndInsertionOrder) {
  CounterSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.value("boxes"), 0u);
  set.add("boxes");
  set.add("progress", 10);
  set.add("boxes", 4);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.value("boxes"), 5u);
  EXPECT_EQ(set.value("progress"), 10u);
  ASSERT_EQ(set.entries().size(), 2u);
  EXPECT_EQ(set.entries()[0].first, "boxes");
  EXPECT_EQ(set.entries()[1].first, "progress");
}

TEST(CounterSet, MergeAppendsNewNamesInOtherOrder) {
  CounterSet a, b;
  a.add("x", 1);
  a.add("y", 2);
  b.add("y", 3);
  b.add("z", 4);
  a.merge(b);
  ASSERT_EQ(a.entries().size(), 3u);
  EXPECT_EQ(a.value("x"), 1u);
  EXPECT_EQ(a.value("y"), 5u);
  EXPECT_EQ(a.value("z"), 4u);
  EXPECT_EQ(a.entries()[2].first, "z");
}

TEST(CounterSet, ToEventCarriesEveryCounter) {
  CounterSet set;
  set.add("boxes", 3);
  set.add("progress", 9);
  const Event e = set.to_event("run");
  EXPECT_EQ(e.type, "run");
  EXPECT_EQ(e.u64_or("boxes", 0), 3u);
  EXPECT_EQ(e.u64_or("progress", 0), 9u);
}

// ------------------------------------------------------------------ spans

// Deterministic clock for span tests: advances 10ns per reading.
std::uint64_t fake_clock_now = 0;
std::uint64_t fake_clock() { return fake_clock_now += 10; }

TEST(SpanSet, NestingParentDepthAndDurations) {
  fake_clock_now = 0;
  SpanSet spans(&fake_clock);
  const std::size_t outer = spans.open("experiment");
  const std::size_t inner = spans.open("trial");
  spans.close(inner);
  spans.close(outer);
  ASSERT_EQ(spans.records().size(), 2u);
  const SpanRecord& o = spans.records()[outer];
  const SpanRecord& i = spans.records()[inner];
  EXPECT_EQ(o.parent, kNoParent);
  EXPECT_EQ(o.depth, 0u);
  EXPECT_EQ(i.parent, outer);
  EXPECT_EQ(i.depth, 1u);
  EXPECT_TRUE(o.closed);
  EXPECT_TRUE(i.closed);
  // Clock ticks: open(outer)=10, open(inner)=20, close(inner)=30,
  // close(outer)=40.
  EXPECT_EQ(i.duration_ns, 10u);
  EXPECT_EQ(o.duration_ns, 30u);
}

TEST(SpanSet, LifoViolationThrows) {
  fake_clock_now = 0;
  SpanSet spans(&fake_clock);
  const std::size_t a = spans.open("a");
  spans.open("b");
  EXPECT_THROW(spans.close(a), util::CheckError);
}

TEST(SpanSet, EmitRequiresAllClosedAndWritesOneEventPerSpan) {
  fake_clock_now = 0;
  SpanSet spans(&fake_clock);
  MemorySink sink;
  const std::size_t a = spans.open("a");
  EXPECT_THROW(spans.emit(sink), util::CheckError);
  spans.close(a);
  spans.emit(sink);
  ASSERT_EQ(sink.events().size(), 1u);
  EXPECT_EQ(sink.events()[0].type, "span");
  EXPECT_EQ(sink.events()[0].str_or("name", ""), "a");
  EXPECT_EQ(sink.events()[0].u64_or("depth", 99), 0u);
}

TEST(ScopedSpan, NullSetIsANoOpAndNonNullRecords) {
  { ScopedSpan noop(nullptr, "ignored"); }  // must not crash
  fake_clock_now = 0;
  SpanSet spans(&fake_clock);
  {
    ScopedSpan outer(&spans, "outer");
    ScopedSpan inner(&spans, "inner");
  }
  ASSERT_EQ(spans.records().size(), 2u);
  EXPECT_EQ(spans.open_count(), 0u);
  EXPECT_EQ(spans.records()[1].parent, 0u);
}

// ------------------------------------------------------------------ sinks

TEST(Sinks, MemoryJsonlAndNullBehave) {
  Event e("x");
  e.u64("v", 1);

  MemorySink memory;
  memory.write(e);
  memory.write(e);
  EXPECT_EQ(memory.events().size(), 2u);
  memory.clear();
  EXPECT_TRUE(memory.events().empty());

  std::ostringstream os;
  JsonlSink jsonl(os);
  jsonl.write(e);
  jsonl.write(e);
  EXPECT_EQ(jsonl.lines(), 2u);
  std::istringstream is(os.str());
  std::string line;
  std::size_t parsed = 0;
  while (std::getline(is, line)) {
    Event back;
    EXPECT_TRUE(parse_jsonl(line, &back));
    EXPECT_EQ(back, e);
    ++parsed;
  }
  EXPECT_EQ(parsed, 2u);

  NullSink null;
  null.write(e);
  EXPECT_EQ(null.events(), 1u);
}

// -------------------------------------------------------------- recorders

TEST(SizeClass, IsFloorLog2) {
  EXPECT_EQ(size_class(1), 0u);
  EXPECT_EQ(size_class(2), 1u);
  EXPECT_EQ(size_class(3), 1u);
  EXPECT_EQ(size_class(4), 2u);
  EXPECT_EQ(size_class((UINT64_C(1) << 40) - 1), 39u);
  EXPECT_EQ(size_class(UINT64_C(1) << 40), 40u);
}

TEST(ExecRecorder, AggregatesTalliesAndEmitsBoxEvents) {
  MemorySink sink;
  ExecRecorder rec(&sink);
  rec.on_box({0, 4, 0, 4, 0, ExecBranch::kScanAdvance});
  rec.on_box({1, 4, 3, 1, 4, ExecBranch::kCompleteJump});
  rec.on_box({2, 16, 9, 7, 16, ExecBranch::kBudgeted});

  EXPECT_EQ(rec.boxes(), 3u);
  EXPECT_EQ(rec.sum_box_sizes(), 24u);
  EXPECT_EQ(rec.total_progress(), 12u);
  EXPECT_EQ(rec.total_scan_advance(), 12u);
  EXPECT_EQ(rec.completions(), 2u);
  EXPECT_EQ(rec.branch_count(ExecBranch::kScanAdvance), 1u);
  EXPECT_EQ(rec.branch_count(ExecBranch::kCompleteJump), 1u);
  EXPECT_EQ(rec.branch_count(ExecBranch::kBudgeted), 1u);

  // Size-class buckets: two boxes in class 2 (|box|=4), one in class 4.
  const auto& classes = rec.size_classes();
  EXPECT_EQ(classes[2].boxes, 2u);
  EXPECT_EQ(classes[2].sum_box, 8u);
  EXPECT_EQ(classes[2].progress, 3u);
  EXPECT_EQ(classes[2].scan_advance, 5u);
  EXPECT_EQ(classes[2].completions, 1u);
  EXPECT_EQ(classes[4].boxes, 1u);
  EXPECT_EQ(classes[4].completions, 1u);

  const CounterSet counters = rec.counters();
  EXPECT_EQ(counters.value("boxes"), 3u);
  EXPECT_EQ(counters.value("progress"), 12u);
  EXPECT_EQ(counters.value("scan_advance"), 12u);
  EXPECT_EQ(counters.value("branch_budgeted"), 1u);

  // One "box" event per observation, fields intact.
  ASSERT_EQ(sink.events().size(), 3u);
  EXPECT_EQ(sink.events()[1].type, "box");
  EXPECT_EQ(sink.events()[1].u64_or("i", 0), 1u);
  EXPECT_EQ(sink.events()[1].u64_or("s", 0), 4u);
  EXPECT_EQ(sink.events()[1].u64_or("progress", 0), 3u);
  EXPECT_EQ(sink.events()[1].u64_or("scan", 9), 1u);
  EXPECT_EQ(sink.events()[1].u64_or("completed", 0), 4u);
  EXPECT_EQ(sink.events()[1].str_or("branch", ""), "jump");

  rec.emit_run_summary(sink, /*completed=*/true);
  const Event& run = sink.events().back();
  EXPECT_EQ(run.type, "run");
  EXPECT_TRUE(run.flag_or("completed", false));
  EXPECT_EQ(run.u64_or("boxes", 0), 3u);
}

TEST(ExecRecorder, NullSinkKeepsAggregatesOnly) {
  ExecRecorder rec;  // no sink
  rec.on_box({0, 2, 1, 1, 2, ExecBranch::kCompleteJump});
  EXPECT_EQ(rec.boxes(), 1u);
  EXPECT_EQ(rec.sink(), nullptr);
}

TEST(ExecRecorder, AttachedEngineEmitsOneEventPerBoxAndDetachStops) {
  const model::RegularParams params{8, 4, 1.0};
  const std::uint64_t n = 64;
  engine::RegularExecution exec(params, n);
  EXPECT_EQ(exec.recorder(), nullptr);  // disabled by default

  MemorySink sink;
  ExecRecorder rec(&sink);
  exec.set_recorder(&rec);
  exec.consume_box(1);
  exec.consume_box(4);
  EXPECT_EQ(rec.boxes(), 2u);
  EXPECT_EQ(sink.events().size(), 2u);
  EXPECT_EQ(sink.events()[0].str_or("branch", ""), "jump");

  exec.set_recorder(nullptr);
  exec.consume_box(1);
  EXPECT_EQ(rec.boxes(), 2u);  // detached: no further observations
  EXPECT_EQ(exec.boxes_consumed(), 3u);
}

TEST(McRecorder, TimingGateOrderingAndFinish) {
  MemorySink sink;
  McRecorder rec(&sink, /*record_timing=*/false);
  EXPECT_FALSE(rec.record_timing());
  rec.on_trial({0, 11, true, false, 5, 1.5, 1.25, 999});
  rec.on_trial({1, 22, false, true, 9, 0.0, 0.0, 999});
  rec.on_trial({2, 33, true, false, 5, 2.5, 2.25, 999});
  // Out-of-order trials are a bug in the driver.
  EXPECT_THROW(rec.on_trial({1, 0, true, false, 0, 0, 0, 0}),
               util::CheckError);

  ASSERT_EQ(rec.trials().size(), 3u);
  EXPECT_EQ(rec.trials()[0].duration_ns, 0u);  // timing gated off
  ASSERT_EQ(sink.events().size(), 3u);
  EXPECT_EQ(sink.events()[0].type, "trial");
  EXPECT_EQ(sink.events()[0].find("duration_ns"), nullptr);
  EXPECT_EQ(sink.events()[1].flag_or("completed", true), false);

  rec.finish();
  const Event& mc = sink.events().back();
  EXPECT_EQ(mc.type, "mc");
  EXPECT_EQ(mc.u64_or("trials", 0), 3u);
  EXPECT_EQ(mc.u64_or("incomplete", 0), 1u);
  // Mean ratio covers completed trials only: (1.5 + 2.5) / 2.
  EXPECT_DOUBLE_EQ(mc.f64_or("mean_ratio", 0.0), 2.0);
}

TEST(McRecorder, TimingOnKeepsDurations) {
  MemorySink sink;
  McRecorder rec(&sink);  // record_timing defaults to true
  rec.on_trial({0, 1, true, false, 2, 1.0, 1.0, 777});
  EXPECT_EQ(rec.trials()[0].duration_ns, 777u);
  EXPECT_EQ(sink.events()[0].u64_or("duration_ns", 0), 777u);
}

TEST(PagingRecorder, PerClassTalliesTotalsAndEmit) {
  PagingRecorder rec;
  rec.on_box_start(4);
  rec.on_access(4, /*hit=*/true, /*evicted=*/false);
  rec.on_access(4, /*hit=*/false, /*evicted=*/false);
  rec.on_box_start(16);
  rec.on_access(16, /*hit=*/false, /*evicted=*/true);

  const auto& levels = rec.levels();
  EXPECT_EQ(levels[2].boxes, 1u);
  EXPECT_EQ(levels[2].accesses, 2u);
  EXPECT_EQ(levels[2].hits, 1u);
  EXPECT_EQ(levels[2].misses, 1u);
  EXPECT_EQ(levels[4].misses, 1u);
  EXPECT_EQ(levels[4].evictions, 1u);
  EXPECT_EQ(rec.total_hits(), 1u);
  EXPECT_EQ(rec.total_misses(), 2u);

  MemorySink sink;
  rec.emit(sink);
  ASSERT_EQ(sink.events().size(), 2u);  // only non-empty classes
  EXPECT_EQ(sink.events()[0].type, "paging");
  EXPECT_EQ(sink.events()[0].u64_or("size_class", 99), 2u);
  EXPECT_EQ(sink.events()[1].u64_or("size_class", 99), 4u);
}

TEST(ExecBranch, NamesAreStable) {
  EXPECT_STREQ(exec_branch_name(ExecBranch::kCompleteJump), "jump");
  EXPECT_STREQ(exec_branch_name(ExecBranch::kScanAdvance), "scan");
  EXPECT_STREQ(exec_branch_name(ExecBranch::kBudgeted), "budgeted");
}

}  // namespace
}  // namespace cadapt::obs
