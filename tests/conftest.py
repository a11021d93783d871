from hypothesis import settings

# CI starts with an empty example database, so a failure found there on
# a random draw would be lost with the run. The ci profile prints the
# reproduction blob (for @reproduce_failure) with every failing example.
settings.register_profile("ci", print_blob=True)
