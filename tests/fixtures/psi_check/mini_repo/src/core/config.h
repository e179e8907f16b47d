// Knob fixture: tests/mini_test.cc assigns test_only_knob and shipped_knob,
// tools/driver.cc assigns shipped_knob too, and default_knob is only
// compared. Findings: test_only_knob (line 7, set only under tests/) and
// default_knob (line 9, set by no file).
namespace psi::core {
struct SmartPsiConfig {
  int test_only_knob = 0;
  int shipped_knob = 0;
  int default_knob = 0;
};
}  // namespace psi::core
