#include "util/stop_token.h"

#include <cmath>
#include <thread>

#include <gtest/gtest.h>

#include "util/timer.h"

namespace psi::util {
namespace {

TEST(StopTokenTest, DefaultTokenNeverStops) {
  StopToken token;
  EXPECT_FALSE(token.StopRequested());
}

TEST(StopTokenTest, ObservesSource) {
  StopSource source;
  StopToken token(&source);
  EXPECT_FALSE(token.StopRequested());
  source.RequestStop();
  EXPECT_TRUE(token.StopRequested());
}

TEST(StopTokenTest, VisibleAcrossThreads) {
  StopSource source;
  StopToken token(&source);
  std::thread requester([&source] { source.RequestStop(); });
  requester.join();
  EXPECT_TRUE(token.StopRequested());
}

TEST(DeadlineTest, DefaultIsInfinite) {
  Deadline d;
  EXPECT_TRUE(d.IsInfinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_TRUE(std::isinf(d.RemainingSeconds()));
}

TEST(DeadlineTest, ExpiresAfterDuration) {
  const Deadline d = Deadline::After(0.02);
  EXPECT_FALSE(d.IsInfinite());
  EXPECT_FALSE(d.Expired());
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(d.Expired());
  EXPECT_LE(d.RemainingSeconds(), 0.0);
}

// The documented memory-ordering contract (stop_token.h): RequestStop() is
// a release store, StopRequested() an acquire load, so plain data written
// before the request is safely readable after observing the stop. TSan
// verifies the absence of a race when the CI job runs this under
// -fsanitize=thread; the assertion checks the visibility direction.
TEST(StopTokenTest, RequestStopPublishesPriorWrites) {
  for (int round = 0; round < 100; ++round) {
    StopSource source;
    int reason = 0;  // non-atomic on purpose: ordered by the flag alone
    std::thread initiator([&] {
      reason = round + 1;
      source.RequestStop();
    });
    const StopToken token(&source);
    while (!token.StopRequested()) std::this_thread::yield();
    EXPECT_EQ(reason, round + 1);
    initiator.join();
  }
}

TEST(DeadlineTest, NonPositiveExpiresImmediately) {
  EXPECT_TRUE(Deadline::After(0.0).Expired());
  EXPECT_TRUE(Deadline::After(-1.0).Expired());
}

TEST(WallTimerTest, MeasuresElapsed) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double s = t.Seconds();
  EXPECT_GE(s, 0.015);
  EXPECT_LT(s, 2.0);
}

}  // namespace
}  // namespace psi::util
