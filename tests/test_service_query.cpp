#include <gtest/gtest.h>

#include <string>

#include "service/query.hpp"

namespace viprof::service {
namespace {

core::Resolution res(const char* image, const char* symbol, core::SampleDomain domain) {
  core::Resolution r;
  r.image = image;
  r.symbol = symbol;
  r.domain = domain;
  return r;
}

ServiceSnapshot make_snapshot() {
  ServiceSnapshot snap;
  SessionSnapshot s;
  s.id = "alpha";
  s.profile.add(hw::EventKind::kGlobalPowerEvents,
                res("anon (tgid:42 range:0x1000-0x2000)", "(unknown JIT code)",
                    core::SampleDomain::kAnon),
                7);
  s.profile.add(hw::EventKind::kBsqCacheReference,
                res("vmlinux", "sys_read", core::SampleDomain::kKernel), 3);
  s.epochs[2].add(hw::EventKind::kGlobalPowerEvents,
                  res("vmlinux", "sys_read", core::SampleDomain::kKernel), 4);
  s.epochs[5].add(hw::EventKind::kGlobalPowerEvents,
                  res("JIT.App", "app.K1.m3", core::SampleDomain::kJit), 2);
  snap.sessions.push_back(std::move(s));

  SessionSnapshot t;
  t.id = "beta";
  t.profile.add(hw::EventKind::kGlobalPowerEvents,
                res("libc-2.3.2.so", "memcpy", core::SampleDomain::kImage), 5);
  snap.sessions.push_back(std::move(t));
  return snap;
}

TEST(ServiceSnapshot, SerializeParseRoundTrip) {
  const ServiceSnapshot snap = make_snapshot();
  const std::string text = snap.serialize();
  const auto parsed = ServiceSnapshot::parse(text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->sessions.size(), 2u);

  // Rebuilt profiles must render byte-identically — row order included.
  const std::vector<hw::EventKind> events = {hw::EventKind::kGlobalPowerEvents,
                                             hw::EventKind::kBsqCacheReference};
  EXPECT_EQ(parsed->sessions[0].profile.render(events, 10),
            snap.sessions[0].profile.render(events, 10));
  EXPECT_EQ(parsed->sessions[1].profile.render(events, 10),
            snap.sessions[1].profile.render(events, 10));
  // And re-serialising the parse is a fixed point.
  EXPECT_EQ(parsed->serialize(), text);
}

TEST(ServiceSnapshot, EpochProfilesSurviveRoundTrip) {
  const std::string text = make_snapshot().serialize();
  const auto parsed = ServiceSnapshot::parse(text);
  ASSERT_TRUE(parsed.has_value());
  const SessionSnapshot* alpha = parsed->find("alpha");
  ASSERT_NE(alpha, nullptr);
  ASSERT_EQ(alpha->epochs.size(), 2u);
  EXPECT_EQ(profile_since(*alpha, 0).total(hw::EventKind::kGlobalPowerEvents), 6u);
  EXPECT_EQ(profile_since(*alpha, 3).total(hw::EventKind::kGlobalPowerEvents), 2u);
  EXPECT_EQ(profile_since(*alpha, 6).total(hw::EventKind::kGlobalPowerEvents), 0u);
}

TEST(ServiceSnapshot, RejectsBitFlip) {
  std::string text = make_snapshot().serialize();
  // Flip one byte inside a count field (not the crc line itself).
  const std::size_t at = text.find("row ");
  ASSERT_NE(at, std::string::npos);
  text[at + 4] ^= 0x1;
  EXPECT_FALSE(ServiceSnapshot::parse(text).has_value());
}

TEST(ServiceSnapshot, RejectsTruncationAndGarbage) {
  const std::string text = make_snapshot().serialize();
  EXPECT_FALSE(ServiceSnapshot::parse(text.substr(0, text.size() / 2)).has_value());
  EXPECT_FALSE(ServiceSnapshot::parse("").has_value());
  EXPECT_FALSE(ServiceSnapshot::parse("not a snapshot\n").has_value());
  // Valid crc over an invalid body must still be rejected.
  EXPECT_FALSE(ServiceSnapshot::parse("crc 00000000\n").has_value());
}

TEST(ServiceSnapshot, NothingMayFollowTheCrcTrailer) {
  // Each of these keeps a checksum that matches every byte before the
  // trailer; only a strict trailer check refuses them.
  const std::string good = make_snapshot().serialize();
  const std::string no_nl = good.substr(0, good.size() - 1);
  ASSERT_TRUE(ServiceSnapshot::parse(good).has_value());
  for (const std::string& bad :
       {good + "session gamma\n", good + "x", good + "\n", no_nl + "XYZ\n",
        no_nl + " 7\n", no_nl + "0\n"})
    EXPECT_FALSE(ServiceSnapshot::parse(bad).has_value()) << bad;
}

TEST(ServiceSnapshot, FindAndMerged) {
  const ServiceSnapshot snap = make_snapshot();
  EXPECT_NE(snap.find("alpha"), nullptr);
  EXPECT_EQ(snap.find("gamma"), nullptr);
  const core::Profile merged = snap.merged();
  EXPECT_EQ(merged.total(hw::EventKind::kGlobalPowerEvents), 12u);
  EXPECT_EQ(merged.total(hw::EventKind::kBsqCacheReference), 3u);
}

TEST(RenderSessions, ListsEverySession) {
  const std::string text = render_sessions(make_snapshot());
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("beta"), std::string::npos);
}

TEST(RenderDiff, RanksMoversByAbsoluteDelta) {
  ServiceSnapshot before = make_snapshot();
  ServiceSnapshot after = make_snapshot();
  // memcpy grows by 20 in beta; alpha's JIT row disappears entirely.
  after.sessions[1].profile.add(
      hw::EventKind::kGlobalPowerEvents,
      res("libc-2.3.2.so", "memcpy", core::SampleDomain::kImage), 20);
  before.sessions[0].profile.add(
      hw::EventKind::kGlobalPowerEvents,
      res("JIT.App", "app.K9.m99", core::SampleDomain::kJit), 9);

  const std::string diff = render_diff(before, after, "",
                                       hw::EventKind::kGlobalPowerEvents, 10);
  const std::size_t memcpy_at = diff.find("memcpy");
  const std::size_t removed_at = diff.find("app.K9.m99");
  ASSERT_NE(memcpy_at, std::string::npos);
  ASSERT_NE(removed_at, std::string::npos);
  EXPECT_LT(memcpy_at, removed_at);  // +20 outranks -9
  EXPECT_NE(diff.find("+20"), std::string::npos);
  EXPECT_NE(diff.find("-9"), std::string::npos);
}

TEST(RenderDiff, SessionFilterRestrictsTheComparison) {
  ServiceSnapshot before = make_snapshot();
  ServiceSnapshot after = make_snapshot();
  after.sessions[1].profile.add(
      hw::EventKind::kGlobalPowerEvents,
      res("libc-2.3.2.so", "memcpy", core::SampleDomain::kImage), 20);
  const std::string diff =
      render_diff(before, after, "alpha", hw::EventKind::kGlobalPowerEvents, 10);
  EXPECT_EQ(diff.find("memcpy"), std::string::npos);  // beta-only change
}

}  // namespace
}  // namespace viprof::service
