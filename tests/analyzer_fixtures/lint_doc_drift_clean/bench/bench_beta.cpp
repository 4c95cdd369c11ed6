// FIXTURE: documented in both experiment docs.
int main() { return 0; }
