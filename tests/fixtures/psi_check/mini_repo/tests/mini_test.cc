// Cross-reference targets for the psi_check fixture tree: mentions
// test.site.alpha (the exercised fault site) plus good_counter and
// missing_in_tostring (asserted metrics counters), calls the two
// functions that nothing outside tests/ calls, and sets the two config
// knobs, one of which nothing outside tests/ sets. Never compiled.
TEST(Mini, CountersAndSites) {
  use("test.site.alpha");
  assert_counter(snapshot.good_counter);
  assert_counter(snapshot.missing_in_tostring);
  EXPECT_EQ(psi::match::OnlyTested(), psi::match::WronglyWaived());
}
TEST(Mini, Knobs) {
  psi::core::SmartPsiConfig config{.test_only_knob = 1};
  config.shipped_knob = 2;
  EXPECT_TRUE(config.default_knob == 0);
}
