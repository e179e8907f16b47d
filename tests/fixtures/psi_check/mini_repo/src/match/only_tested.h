// unused-decl fixtures: OnlyTested and WronglyWaived are called from
// tests/mini_test.cc alone, so each collects one finding; the waiver on
// WronglyWaived names another rule and suppresses nothing. Constructors,
// destructors, operators and overrides are exempt, so Probe adds none.
namespace psi::match {
int OnlyTested();
// psi-check: allow(determinism) -- fixture: a waiver naming the wrong rule
int WronglyWaived();

class Probe : public Base {
 public:
  explicit Probe(int n);
  ~Probe() override;
  bool operator==(const Probe& other) const;
  void Visit() override;
};
}  // namespace psi::match
