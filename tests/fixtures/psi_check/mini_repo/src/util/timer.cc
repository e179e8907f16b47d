namespace psi::util {
double WallTimer::Seconds() const { return Raw(); }
}  // namespace psi::util
