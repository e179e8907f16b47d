// Test-only knob fixture: tests/mini_test.cc assigns test_only_knob and
// shipped_knob, tools/driver.cc assigns shipped_knob too, and default_knob
// is only compared, never assigned. test_only_knob (line 7) is the one
// unused-decl finding here.
namespace psi::core {
struct SmartPsiConfig {
  int test_only_knob = 0;
  int shipped_knob = 0;
  int default_knob = 0;
};
}  // namespace psi::core
