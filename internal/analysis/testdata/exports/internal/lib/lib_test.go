package lib

import "testing"

func TestPlanted(t *testing.T) {
	if Planted()+(T{}).Helper() != 5 {
		t.Fatal("fixture arithmetic")
	}
}
