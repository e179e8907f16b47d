// unused-decl member fixtures: Micros shares its name with the free
// function src/util/micros.cc calls, which does not make the member
// referenced, so it collects the one finding here (line 9). Seconds is
// called through `.` in tools/driver.cc, and Raw unqualified in timer.cc,
// which defines WallTimer's members.
namespace psi::util {
class WallTimer {
 public:
  double Micros() const;
  double Seconds() const;

 private:
  double Raw() const;
};
}  // namespace psi::util
