// A caller outside src/: the functions the other fixture headers declare
// are used here, so only src/match/only_tested.h and the WallTimer member
// in src/util/timer.h collect unused-decl findings.
int main() {
  psi::util::Clean clean;
  psi::core::LockHog hog;
  hog.Touch();
  psi::util::WallTimer timer;
  psi::core::SmartPsiConfig config;
  config.shipped_knob = 1;
  return clean.value() + psi::service::MetricsSnapshot().ToString().size() +
         static_cast<int>(timer.Seconds());
}
