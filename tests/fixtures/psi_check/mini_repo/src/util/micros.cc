namespace psi::util {
namespace {
long Micros(double seconds) { return static_cast<long>(seconds * 1e6); }
}  // namespace
long WholeMicros(double seconds) { return Micros(seconds); }
}  // namespace psi::util
