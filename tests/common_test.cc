#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>

#include "common/report_envelope.h"
#include "common/rng.h"
#include "common/types.h"

namespace kivati {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowCoversRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 400; ++i) {
    seen.insert(rng.NextBelow(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t v = rng.NextInRange(5, 7);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoolExtremes) {
  Rng rng(15);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, ForkIndependentOfParent) {
  Rng parent(99);
  Rng child = parent.Fork();
  // Advancing the child must not change the parent's sequence relative to a
  // twin that forked but never used its child.
  Rng parent2(99);
  Rng child2 = parent2.Fork();
  (void)child2;
  for (int i = 0; i < 16; ++i) {
    child.Next();
  }
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(parent.Next(), parent2.Next());
  }
}

TEST(WatchTypeTest, UnionCombines) {
  EXPECT_EQ(Union(WatchType::kRead, WatchType::kWrite), WatchType::kReadWrite);
  EXPECT_EQ(Union(WatchType::kRead, WatchType::kNone), WatchType::kRead);
  EXPECT_EQ(Union(WatchType::kReadWrite, WatchType::kWrite), WatchType::kReadWrite);
}

TEST(WatchTypeTest, MatchesRespectsType) {
  EXPECT_TRUE(Matches(WatchType::kRead, AccessType::kRead));
  EXPECT_FALSE(Matches(WatchType::kRead, AccessType::kWrite));
  EXPECT_TRUE(Matches(WatchType::kReadWrite, AccessType::kWrite));
  EXPECT_FALSE(Matches(WatchType::kNone, AccessType::kRead));
}

// The four non-serializable interleavings of the paper's Figure 2 — and
// nothing else.
TEST(SerializabilityTest, Figure2Patterns) {
  const AccessType R = AccessType::kRead;
  const AccessType W = AccessType::kWrite;
  EXPECT_TRUE(NonSerializable(R, W, R));   // lost read consistency
  EXPECT_TRUE(NonSerializable(W, W, R));   // local read sees foreign write
  EXPECT_TRUE(NonSerializable(W, R, W));   // remote reads intermediate value
  EXPECT_TRUE(NonSerializable(R, W, W));   // lost update
  EXPECT_FALSE(NonSerializable(R, R, R));
  EXPECT_FALSE(NonSerializable(R, R, W));
  EXPECT_FALSE(NonSerializable(W, R, R));
  EXPECT_FALSE(NonSerializable(W, W, W));  // serializable: remote-first order
}

// Figure 6: the remote access type to watch, derived from the local pair.
TEST(SerializabilityTest, Figure6WatchTypes) {
  const AccessType R = AccessType::kRead;
  const AccessType W = AccessType::kWrite;
  EXPECT_EQ(RemoteWatchFor(R, R), WatchType::kWrite);
  EXPECT_EQ(RemoteWatchFor(R, W), WatchType::kWrite);
  EXPECT_EQ(RemoteWatchFor(W, R), WatchType::kWrite);
  EXPECT_EQ(RemoteWatchFor(W, W), WatchType::kRead);
}

// The clock observed through Machine::now() is per-core and not monotonic
// across context switches; durations must clamp instead of wrapping to
// ~2^64 (the histogram-corruption bug fixed alongside docs/performance.md).
TEST(ClampedElapsedTest, ClampsNonMonotonicSamples) {
  EXPECT_EQ(ClampedElapsed(100, 40), 60u);
  EXPECT_EQ(ClampedElapsed(40, 40), 0u);
  // The event started on a core that ran ahead: now < start.
  EXPECT_EQ(ClampedElapsed(40, 100), 0u);
  EXPECT_EQ(ClampedElapsed(0, ~Cycles{0}), 0u);
  EXPECT_EQ(ClampedElapsed(~Cycles{0}, 0), ~Cycles{0});
}

// Every watch type derived from Figure 6 must trap exactly the remote
// accesses that can complete a non-serializable interleaving.
TEST(SerializabilityTest, WatchCoversAllViolations) {
  for (const AccessType first : {AccessType::kRead, AccessType::kWrite}) {
    for (const AccessType second : {AccessType::kRead, AccessType::kWrite}) {
      const WatchType watch = RemoteWatchFor(first, second);
      for (const AccessType remote : {AccessType::kRead, AccessType::kWrite}) {
        if (NonSerializable(first, remote, second)) {
          EXPECT_TRUE(Matches(watch, remote))
              << ToString(first) << "-" << ToString(remote) << "-" << ToString(second);
        }
      }
    }
  }
}

// The one JSON string escaper every report writes through: quote and
// backslash get a backslash, newline and tab their short escapes, and any
// other control character a \u escape, so every report parses as JSON.
TEST(ReportEnvelopeTest, EscapeJsonEscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(report::EscapeJson("plain/path.kv"), "plain/path.kv");
  EXPECT_EQ(report::EscapeJson("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(report::EscapeJson("a\\b"), "a\\\\b");
  EXPECT_EQ(report::EscapeJson("a\nb"), "a\\nb");
  EXPECT_EQ(report::EscapeJson("tab\there"), "tab\\there");
  EXPECT_EQ(report::EscapeJson(std::string("a\x01") + "b"), "a\\u0001b");
}

// The one field writer: `"key":value`, reals at %.6f, strings escaped, and
// the comma only when asked for.
TEST(ReportEnvelopeTest, AppendFieldWritesOneMember) {
  std::string out = "{";
  report::AppendField(out, "n", std::uint64_t{18446744073709551615u});
  report::AppendField(out, "r", 0.5);
  report::AppendField(out, "b", false);
  report::AppendField(out, "s", std::string("a\tb"), /*comma=*/false);
  out += "}";
  EXPECT_EQ(out, "{\"n\":18446744073709551615,\"r\":0.500000,\"b\":false,\"s\":\"a\\tb\"}");

  const report::Json parsed = report::ParseJson(out);
  ASSERT_EQ(parsed.type, report::Json::Type::kObject);
  ASSERT_EQ(parsed.object.size(), 4u);
  EXPECT_TRUE(parsed.object[0].second.is_uint);
  EXPECT_EQ(parsed.object[0].second.uinteger, 18446744073709551615u);
  EXPECT_EQ(parsed.object[1].second.number, 0.5);
  EXPECT_FALSE(parsed.object[1].second.is_uint);
  EXPECT_EQ(parsed.object[2].second.type, report::Json::Type::kBool);
  EXPECT_EQ(parsed.Find("s")->string, "a\tb");
  EXPECT_EQ(parsed.Find("missing"), nullptr);
}

TEST(ReportEnvelopeTest, ParseJsonReadsBackEveryEscapedByte) {
  std::string text;
  for (int c = 0x01; c <= 0x7f; ++c) {
    text += static_cast<char>(c);
  }
  const report::Json parsed = report::ParseJson("\"" + report::EscapeJson(text) + "\"");
  ASSERT_EQ(parsed.type, report::Json::Type::kString);
  EXPECT_EQ(parsed.string, text);
  EXPECT_EQ(report::ParseJson("\"\\u0041\\u007F\"").string, "A\x7f");
}

TEST(ReportEnvelopeTest, ParseJsonAcceptsSurroundingWhitespace) {
  const report::Json parsed = report::ParseJson(" \t{\"a\" : [1, true, null]}\r\n \n");
  ASSERT_EQ(parsed.type, report::Json::Type::kObject);
  ASSERT_EQ(parsed.Find("a")->array.size(), 3u);
  EXPECT_EQ(parsed.Find("a")->array[2].type, report::Json::Type::kNull);
}

TEST(ReportEnvelopeTest, ParseJsonRejectsMalformedDocuments) {
  // RFC 8259: control characters inside a string must be escaped.
  EXPECT_THROW(report::ParseJson("\"a\tb\""), std::runtime_error);
  EXPECT_THROW(report::ParseJson("{\"a\":1}x"), std::runtime_error);
  EXPECT_THROW(report::ParseJson("{\"a\":1}{}"), std::runtime_error);
  EXPECT_THROW(report::ParseJson(""), std::runtime_error);
  EXPECT_THROW(report::ParseJson("\"\\u00zz\""), std::runtime_error);
  // A code point the reader would have to decode to UTF-8.
  EXPECT_THROW(report::ParseJson("\"\\u00e9\""), std::runtime_error);
  EXPECT_THROW(report::ParseJson("\"\\q\""), std::runtime_error);
  for (const char* number : {"01", "1.", ".5", "+1", "1e", "-", "1.2.3", "0x10"}) {
    EXPECT_THROW(report::ParseJson(number), std::runtime_error) << number;
  }
  EXPECT_FALSE(report::ParseJson("18446744073709551616").is_uint);
  EXPECT_FALSE(report::ParseJson("-1").is_uint);
  EXPECT_EQ(report::ParseJson("-1.5e2").number, -150.0);

  // 64 levels of nesting parse; the 65th is refused.
  EXPECT_NO_THROW(report::ParseJson(std::string(64, '[') + std::string(64, ']')));
  EXPECT_THROW(report::ParseJson(std::string(65, '[') + std::string(65, ']')),
               std::runtime_error);
}

}  // namespace
}  // namespace kivati
