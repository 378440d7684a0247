// Tests for the observability layer (pdr/obs): registry semantics, span
// nesting and timing containment, JSONL round-trip, and thread safety.

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "pdr/obs/export.h"
#include "pdr/obs/obs.h"

namespace pdr {
namespace {

// ---------------------------------------------------------------------------
// A minimal JSON parser, just rich enough for the exporter's output, so the
// round-trip checks parse real JSON instead of substring-matching.

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string,
               std::shared_ptr<JsonObject>, std::shared_ptr<JsonArray>>
      v = nullptr;

  bool is_object() const {
    return std::holds_alternative<std::shared_ptr<JsonObject>>(v);
  }
  const JsonObject& object() const {
    return *std::get<std::shared_ptr<JsonObject>>(v);
  }
  const JsonArray& array() const {
    return *std::get<std::shared_ptr<JsonArray>>(v);
  }
  double number() const { return std::get<double>(v); }
  const std::string& str() const { return std::get<std::string>(v); }

  const JsonValue* Find(const std::string& key) const {
    if (!is_object()) return nullptr;
    auto it = object().find(key);
    return it == object().end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  JsonValue Parse() {
    JsonValue v = ParseValue();
    SkipWs();
    EXPECT_EQ(pos_, s_.size()) << "trailing JSON garbage";
    return v;
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  char Peek() {
    SkipWs();
    EXPECT_LT(pos_, s_.size()) << "unexpected end of JSON";
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }
  char Next() {
    const char c = Peek();
    ++pos_;
    return c;
  }
  void Expect(char c) {
    const char got = Next();
    EXPECT_EQ(got, c) << "at position " << pos_;
  }

  JsonValue ParseValue() {
    const char c = Peek();
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return JsonValue{ParseString()};
    if (c == 'n') {
      pos_ += 4;
      return JsonValue{nullptr};
    }
    if (c == 't') {
      pos_ += 4;
      return JsonValue{true};
    }
    if (c == 'f') {
      pos_ += 5;
      return JsonValue{false};
    }
    return ParseNumber();
  }

  JsonValue ParseObject() {
    Expect('{');
    auto obj = std::make_shared<JsonObject>();
    if (Peek() == '}') {
      ++pos_;
      return JsonValue{obj};
    }
    while (true) {
      const std::string key = ParseString();
      Expect(':');
      (*obj)[key] = ParseValue();
      const char c = Next();
      if (c == '}') break;
      EXPECT_EQ(c, ',');
      if (c != ',') break;
    }
    return JsonValue{obj};
  }

  JsonValue ParseArray() {
    Expect('[');
    auto arr = std::make_shared<JsonArray>();
    if (Peek() == ']') {
      ++pos_;
      return JsonValue{arr};
    }
    while (true) {
      arr->push_back(ParseValue());
      const char c = Next();
      if (c == ']') break;
      EXPECT_EQ(c, ',');
      if (c != ',') break;
    }
    return JsonValue{arr};
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        const char esc = s_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u':
            c = static_cast<char>(
                std::stoi(std::string(s_.substr(pos_, 4)), nullptr, 16));
            pos_ += 4;
            break;
          default: c = esc;
        }
      }
      out.push_back(c);
    }
    Expect('"');
    return out;
  }

  JsonValue ParseNumber() {
    SkipWs();
    size_t end = pos_;
    while (end < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[end])) ||
            s_[end] == '-' || s_[end] == '+' || s_[end] == '.' ||
            s_[end] == 'e' || s_[end] == 'E')) {
      ++end;
    }
    const double v = std::stod(std::string(s_.substr(pos_, end - pos_)));
    pos_ = end;
    return JsonValue{v};
  }

  std::string_view s_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PdrObs::SetEnabled(true);
    PdrObs::SetTraceSink(nullptr);
    MetricsRegistry::Global().ResetAll();
  }
  void TearDown() override { PdrObs::SetTraceSink(nullptr); }
};

TEST_F(ObsTest, CounterBasics) {
  Counter& c = MetricsRegistry::Global().GetCounter("test.counter");
  EXPECT_EQ(c.value(), 0);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42);

  // Same name returns the same counter; different name a different one.
  EXPECT_EQ(&MetricsRegistry::Global().GetCounter("test.counter"), &c);
  EXPECT_NE(&MetricsRegistry::Global().GetCounter("test.counter2"), &c);

  c.Reset();
  EXPECT_EQ(c.value(), 0);
}

TEST_F(ObsTest, CounterRespectsEnabledSwitch) {
  Counter& c = MetricsRegistry::Global().GetCounter("test.gated");
  PdrObs::SetEnabled(false);
  c.Add(5);
  EXPECT_EQ(c.value(), 0);
  PdrObs::SetEnabled(true);
  c.Add(5);
  EXPECT_EQ(c.value(), 5);
}

TEST_F(ObsTest, GaugeLastWriteWins) {
  Gauge& g = MetricsRegistry::Global().GetGauge("test.gauge");
  g.Set(2.5);
  g.Set(7.25);
  EXPECT_DOUBLE_EQ(g.value(), 7.25);
}

TEST_F(ObsTest, HistogramBucketsAreLogScaled) {
  // Bucket 0 is [0, min); bucket i >= 1 is [min * 2^(i-1), min * 2^i).
  EXPECT_EQ(Histogram::BucketOf(0.0), 0);
  EXPECT_EQ(Histogram::BucketOf(Histogram::kMinValue / 2), 0);
  EXPECT_EQ(Histogram::BucketOf(Histogram::kMinValue), 1);
  EXPECT_EQ(Histogram::BucketOf(Histogram::kMinValue * 1.99), 1);
  EXPECT_EQ(Histogram::BucketOf(Histogram::kMinValue * 2), 2);
  EXPECT_EQ(Histogram::BucketOf(1e30), Histogram::kBuckets - 1);
  for (int i = 1; i < Histogram::kBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketOf(Histogram::BucketLowerBound(i)), i);
  }
}

TEST_F(ObsTest, HistogramObserveTracksWelfordStats) {
  Histogram& h = MetricsRegistry::Global().GetHistogram("test.histo");
  for (const double v : {1.0, 2.0, 3.0, 4.0}) h.Observe(v);
  const RunningStat stat = h.stat();
  EXPECT_EQ(stat.count(), 4);
  EXPECT_DOUBLE_EQ(stat.mean(), 2.5);
  EXPECT_DOUBLE_EQ(stat.min(), 1.0);
  EXPECT_DOUBLE_EQ(stat.max(), 4.0);

  const auto buckets = h.buckets();
  int64_t total = 0;
  for (const int64_t b : buckets) total += b;
  EXPECT_EQ(total, 4);
  // Boundaries sit at kMinValue * 2^k = ..., 1.024, 2.048, 4.096, ... so
  // 3.0 and 4.0 share the [2.048, 4.096) bucket while 1.0 and 2.0 each get
  // their own.
  EXPECT_EQ(buckets[Histogram::BucketOf(1.0)], 1);
  EXPECT_EQ(buckets[Histogram::BucketOf(2.0)], 1);
  EXPECT_EQ(buckets[Histogram::BucketOf(4.0)], 2);
  EXPECT_EQ(Histogram::BucketOf(3.0), Histogram::BucketOf(4.0));
}

TEST_F(ObsTest, HistogramPercentilesInterpolateWithinBuckets) {
  Histogram& h = MetricsRegistry::Global().GetHistogram("test.pctl");
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);  // empty
  for (int v = 1; v <= 100; ++v) h.Observe(static_cast<double>(v));

  // Log2 buckets are coarse, so within-bucket interpolation is only
  // required to land in the right neighborhood, monotonically.
  const double p50 = h.Percentile(50);
  const double p95 = h.Percentile(95);
  const double p99 = h.Percentile(99);
  EXPECT_NEAR(p50, 50.0, 16.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Clamped to observed extremes, never beyond.
  EXPECT_LE(p99, 100.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 100.0);

  // The snapshot entry agrees with the live histogram.
  const auto snap = MetricsRegistry::Global().TakeSnapshot();
  for (const auto& entry : snap.histograms) {
    if (entry.name == "test.pctl") {
      EXPECT_DOUBLE_EQ(entry.Percentile(50), p50);
      EXPECT_DOUBLE_EQ(entry.Percentile(99), p99);
    }
  }
}

TEST_F(ObsTest, HistogramPercentileOverRawBuckets) {
  std::array<int64_t, Histogram::kBuckets> buckets{};
  EXPECT_DOUBLE_EQ(HistogramPercentile(buckets, 50), 0.0);
  // 10 observations in one bucket: percentiles sweep that bucket's range.
  const int b = Histogram::BucketOf(10.0);
  buckets[b] = 10;
  const double lo = Histogram::BucketLowerBound(b);
  const double hi = Histogram::BucketLowerBound(b + 1);
  EXPECT_GE(HistogramPercentile(buckets, 1), lo);
  EXPECT_LE(HistogramPercentile(buckets, 99), hi);
  EXPECT_LT(HistogramPercentile(buckets, 10),
            HistogramPercentile(buckets, 90));
}

TEST_F(ObsTest, SnapshotListsEverythingSorted) {
  MetricsRegistry::Global().GetCounter("test.b").Add(2);
  MetricsRegistry::Global().GetCounter("test.a").Add(1);
  MetricsRegistry::Global().GetGauge("test.g").Set(3.0);
  MetricsRegistry::Global().GetHistogram("test.h").Observe(1.0);

  const auto snap = MetricsRegistry::Global().TakeSnapshot();
  // The global registry accumulates names from other suites; find ours.
  int64_t a = -1, b = -1;
  bool sorted = true;
  for (size_t i = 0; i < snap.counters.size(); ++i) {
    if (i > 0 && snap.counters[i - 1].name > snap.counters[i].name) {
      sorted = false;
    }
    if (snap.counters[i].name == "test.a") a = snap.counters[i].value;
    if (snap.counters[i].name == "test.b") b = snap.counters[i].value;
  }
  EXPECT_TRUE(sorted);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST_F(ObsTest, SpanWithoutSinkIsInactive) {
  TraceSpan span("no.sink");
  EXPECT_FALSE(span.active());
  span.SetAttr("x", static_cast<int64_t>(1));  // must not crash
}

TEST_F(ObsTest, SpanNestingAndTimingContainment) {
  CollectingSink sink;
  PdrObs::SetTraceSink(&sink);
  {
    TraceSpan root("root");
    root.SetAttr("depth", static_cast<int64_t>(0));
    {
      TraceSpan child1("child1");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      TraceSpan grandchild("grandchild");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    TraceSpan child2("child2");
  }
  PdrObs::SetTraceSink(nullptr);

  ASSERT_EQ(sink.size(), 1u);
  const auto traces = sink.TakeAll();
  const SpanNode& root = *traces[0];
  EXPECT_EQ(root.name, "root");
  EXPECT_EQ(root.IntAttrOr("depth", -1), 0);
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0]->name, "child1");
  EXPECT_EQ(root.children[1]->name, "child2");
  ASSERT_EQ(root.children[0]->children.size(), 1u);
  EXPECT_EQ(root.children[0]->children[0]->name, "grandchild");
  EXPECT_EQ(root.TreeSize(), 4u);

  // Timing containment: every child interval lies within its parent, and
  // sibling durations sum to no more than the parent's.
  const SpanNode& child1 = *root.children[0];
  const SpanNode& grandchild = *child1.children[0];
  EXPECT_GE(child1.start_ns, root.start_ns);
  EXPECT_LE(child1.end_ns(), root.end_ns());
  EXPECT_GE(grandchild.start_ns, child1.start_ns);
  EXPECT_LE(grandchild.end_ns(), child1.end_ns());
  EXPECT_GE(root.duration_ns,
            root.children[0]->duration_ns + root.children[1]->duration_ns);
  EXPECT_GE(child1.duration_ns, grandchild.duration_ns);
  EXPECT_GT(child1.duration_ns, 0);
}

TEST_F(ObsTest, RootSpansAreDeliveredPerTree) {
  CollectingSink sink;
  PdrObs::SetTraceSink(&sink);
  for (int i = 0; i < 3; ++i) {
    TraceSpan span("root");
  }
  PdrObs::SetTraceSink(nullptr);
  EXPECT_EQ(sink.size(), 3u);
}

TEST_F(ObsTest, DisabledTracingProducesNoSpans) {
  CollectingSink sink;
  PdrObs::SetTraceSink(&sink);
  PdrObs::SetEnabled(false);
  {
    TraceSpan span("root");
    EXPECT_FALSE(span.active());
  }
  PdrObs::SetEnabled(true);
  EXPECT_EQ(sink.size(), 0u);
}

TEST_F(ObsTest, SpanJsonRoundTrip) {
  CollectingSink sink;
  PdrObs::SetTraceSink(&sink);
  {
    TraceSpan root("fr.query");
    root.SetAttr("io_reads", static_cast<int64_t>(42));
    root.SetAttr("rho", 0.125);
    root.SetAttr("quote\"backslash\\", static_cast<int64_t>(1));
    TraceSpan child("fr.filter");
    child.SetAttr("candidates", static_cast<int64_t>(7));
  }
  PdrObs::SetTraceSink(nullptr);
  ASSERT_EQ(sink.size(), 1u);
  const auto traces = sink.TakeAll();
  const SpanNode& original = *traces[0];

  const std::string line = TraceJsonLine(original);
  JsonParser parser(line);
  const JsonValue doc = parser.Parse();

  ASSERT_TRUE(doc.is_object());
  ASSERT_NE(doc.Find("type"), nullptr);
  EXPECT_EQ(doc.Find("type")->str(), "trace");
  const JsonValue* span = doc.Find("span");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->Find("name")->str(), "fr.query");
  EXPECT_DOUBLE_EQ(span->Find("start_ns")->number(),
                   static_cast<double>(original.start_ns));
  EXPECT_NEAR(span->Find("dur_ms")->number(), original.duration_ms(), 1e-9);

  const JsonValue* attrs = span->Find("attrs");
  ASSERT_NE(attrs, nullptr);
  EXPECT_DOUBLE_EQ(attrs->Find("io_reads")->number(), 42.0);
  EXPECT_DOUBLE_EQ(attrs->Find("rho")->number(), 0.125);
  EXPECT_DOUBLE_EQ(attrs->Find("quote\"backslash\\")->number(), 1.0);

  const JsonValue* children = span->Find("children");
  ASSERT_NE(children, nullptr);
  ASSERT_EQ(children->array().size(), 1u);
  const JsonValue& child = children->array()[0];
  EXPECT_EQ(child.Find("name")->str(), "fr.filter");
  EXPECT_DOUBLE_EQ(child.Find("attrs")->Find("candidates")->number(), 7.0);
  EXPECT_EQ(child.Find("children"), nullptr);  // leaf spans omit the key
}

// Regression for the cross-thread child-attachment race: several workers
// adopting the same open parent and opening spans concurrently must yield
// ONE well-formed tree (attachment is mutex-guarded; before the guard this
// corrupted the children vector, visible under TSan). Also checks that
// per-thread ids survive into the tree and the JSONL export.
TEST_F(ObsTest, ConcurrentChildSpansAssembleIntoOneTree) {
  CollectingSink sink;
  PdrObs::SetTraceSink(&sink);
  constexpr int kWorkers = 4;
  constexpr int kSpansEach = 50;
  {
    TraceSpan root("query.root");
    ASSERT_TRUE(root.active());
    const TraceContext ctx = TraceContext::Current();
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&ctx, w] {
        TraceContextScope adopt(ctx);
        for (int i = 0; i < kSpansEach; ++i) {
          TraceSpan child("worker.span");
          child.SetAttr("worker", static_cast<int64_t>(w));
          // Same-thread nesting below an adopted parent must still chain.
          TraceSpan nested("worker.nested");
        }
      });
    }
    for (auto& t : workers) t.join();
  }
  PdrObs::SetTraceSink(nullptr);

  ASSERT_EQ(sink.size(), 1u);  // one tree, not kWorkers * kSpansEach trees
  const auto traces = sink.TakeAll();
  const SpanNode& root = *traces[0];
  ASSERT_EQ(root.children.size(),
            static_cast<size_t>(kWorkers) * kSpansEach);
  std::set<int64_t> tids;
  for (const auto& child : root.children) {
    EXPECT_EQ(child->name, "worker.span");
    ASSERT_EQ(child->children.size(), 1u);
    EXPECT_EQ(child->children[0]->name, "worker.nested");
    EXPECT_EQ(child->children[0]->thread_id, child->thread_id);
    tids.insert(child->thread_id);
  }
  EXPECT_EQ(tids.size(), static_cast<size_t>(kWorkers));
  EXPECT_EQ(tids.count(root.thread_id), 0u);

  const std::string line = TraceJsonLine(root);
  JsonParser parser(line);
  const JsonValue doc = parser.Parse();
  const JsonValue* span = doc.Find("span");
  ASSERT_NE(span, nullptr);
  ASSERT_NE(span->Find("tid"), nullptr);
  EXPECT_DOUBLE_EQ(span->Find("tid")->number(),
                   static_cast<double>(root.thread_id));
}

TEST_F(ObsTest, MetricsJsonlRoundTrip) {
  MetricsRegistry::Global().GetCounter("test.jsonl.counter").Add(17);
  MetricsRegistry::Global().GetGauge("test.jsonl.gauge").Set(2.5);
  Histogram& h = MetricsRegistry::Global().GetHistogram("test.jsonl.histo");
  h.Observe(1.0);
  h.Observe(4.0);

  const std::string path =
      ::testing::TempDir() + "/obs_metrics_roundtrip.jsonl";
  std::remove(path.c_str());
  {
    JsonlWriter writer(path);
    ASSERT_TRUE(writer.ok());
    WriteMetricsJsonl(&writer, MetricsRegistry::Global().TakeSnapshot());
  }

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  bool saw_counter = false, saw_gauge = false, saw_histo = false;
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    JsonParser parser(std::string_view(buf, std::strlen(buf)));
    const JsonValue doc = parser.Parse();
    ASSERT_TRUE(doc.is_object());
    const std::string type = doc.Find("type")->str();
    const std::string name = doc.Find("name")->str();
    if (name == "test.jsonl.counter") {
      saw_counter = true;
      EXPECT_EQ(type, "counter");
      EXPECT_DOUBLE_EQ(doc.Find("value")->number(), 17.0);
    } else if (name == "test.jsonl.gauge") {
      saw_gauge = true;
      EXPECT_EQ(type, "gauge");
      EXPECT_DOUBLE_EQ(doc.Find("value")->number(), 2.5);
    } else if (name == "test.jsonl.histo") {
      saw_histo = true;
      EXPECT_EQ(type, "histogram");
      EXPECT_DOUBLE_EQ(doc.Find("count")->number(), 2.0);
      EXPECT_DOUBLE_EQ(doc.Find("mean")->number(), 2.5);
      int64_t bucket_total = 0;
      for (const JsonValue& b : doc.Find("buckets")->array()) {
        bucket_total += static_cast<int64_t>(b.Find("count")->number());
      }
      EXPECT_EQ(bucket_total, 2);
    }
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_histo);
}

TEST_F(ObsTest, MultiThreadedCounterHammer) {
  Counter& c = MetricsRegistry::Global().GetCounter("test.hammer");
  Histogram& h = MetricsRegistry::Global().GetHistogram("test.hammer_ms");
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h] {
      for (int i = 0; i < kIters; ++i) {
        c.Increment();
        if (i % 100 == 0) h.Observe(static_cast<double>(i % 7) + 0.5);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<int64_t>(kThreads) * kIters);
  EXPECT_EQ(h.stat().count(), static_cast<int64_t>(kThreads) * (kIters / 100));
}

TEST_F(ObsTest, ConcurrentRegistrationIsSafe) {
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<Counter*> seen(kThreads, nullptr);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&seen, t] {
      for (int i = 0; i < 200; ++i) {
        Counter& c = MetricsRegistry::Global().GetCounter(
            "test.concurrent." + std::to_string(i % 10));
        c.Increment();
        if (i == 0) seen[t] = &c;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
}

}  // namespace
}  // namespace pdr
