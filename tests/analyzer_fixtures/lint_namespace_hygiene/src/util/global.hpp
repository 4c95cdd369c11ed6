// FIXTURE: declares nothing inside namespace qdc.
#pragma once

int global_helper();
