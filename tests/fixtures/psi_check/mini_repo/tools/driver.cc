// A caller outside src/: the functions the other fixture headers declare
// are used here, so only src/match/only_tested.h collects unused-decl
// findings.
int main() {
  psi::util::Clean clean;
  psi::core::LockHog hog;
  hog.Touch();
  return clean.value() + psi::service::MetricsSnapshot().ToString().size();
}
