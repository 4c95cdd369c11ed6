// FIXTURE: missing from docs/EXPERIMENT_PIPELINE.md.
int main() { return 0; }
