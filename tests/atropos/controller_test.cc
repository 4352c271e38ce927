#include "src/atropos/controller.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "src/testing/recording_controller.h"

namespace atropos {
namespace {

void ExpectSameEvent(const TraceEvent& got, const TraceEvent& want) {
  EXPECT_EQ(got.time, want.time);
  EXPECT_EQ(got.key, want.key);
  EXPECT_EQ(got.a, want.a);
  EXPECT_EQ(got.b, want.b);
  EXPECT_EQ(got.resource, want.resource);
  EXPECT_EQ(got.request_type, want.request_type);
  EXPECT_EQ(got.client_class, want.client_class);
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.background, want.background);
  EXPECT_EQ(got.cancellable, want.cancellable);
}

// The named hooks are the integration surface apps, the C API and perfbench
// call; each must reach OnEvent exactly once with its factory's event.
TEST(ControllerHooksTest, EachNamedHookEmitsItsFactoryEvent) {
  struct Case {
    std::function<void(OverloadController&)> hook;
    TraceEvent want;
  };
  const std::vector<Case> cases = {
      {[](OverloadController& c) { c.OnTaskRegistered(11, true, false); },
       TraceEvent::TaskRegistered(11, true, false)},
      {[](OverloadController& c) { c.OnTaskRegistered(12, false); },
       TraceEvent::TaskRegistered(12, false, true)},
      {[](OverloadController& c) { c.OnTaskFreed(13); }, TraceEvent::TaskFreed(13)},
      {[](OverloadController& c) { c.OnGet(14, 3, 7); }, TraceEvent::Get(14, 3, 7)},
      {[](OverloadController& c) { c.OnFree(15, 4, 9); }, TraceEvent::Free(15, 4, 9)},
      {[](OverloadController& c) { c.OnWaitBegin(16, 5); }, TraceEvent::WaitBegin(16, 5)},
      {[](OverloadController& c) { c.OnWaitEnd(17, 6); }, TraceEvent::WaitEnd(17, 6)},
      {[](OverloadController& c) { c.OnRequestStart(18, 2, 1); },
       TraceEvent::RequestStart(18, 2, 1)},
      {[](OverloadController& c) { c.OnRequestEnd(19, 4500, 3, 2); },
       TraceEvent::RequestEnd(19, 4500, 3, 2)},
      {[](OverloadController& c) { c.OnUsage(20, 8, 300, 700); },
       TraceEvent::Usage(20, 8, 300, 700)},
      {[](OverloadController& c) { c.OnProgress(21, 5, 10); }, TraceEvent::Progress(21, 5, 10)},
  };
  for (const Case& c : cases) {
    RecordingController ctl;
    c.hook(ctl);
    ASSERT_EQ(ctl.events.size(), 1u) << "key " << c.want.key;
    ExpectSameEvent(ctl.events[0], c.want);
  }
}

}  // namespace
}  // namespace atropos
