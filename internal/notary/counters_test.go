package notary

import (
	"reflect"
	"testing"
)

// TestCountersSchemaComplete: every plain int counter of MonthStats (all but
// the Total/Established denominators) is exactly one Counters row, rows have
// distinct names, and no two rows count on the same class bit.
func TestCountersSchemaComplete(t *testing.T) {
	var ms MonthStats
	v := reflect.ValueOf(&ms).Elem()
	fieldByValue := make(map[int]string) // distinct marker value -> field name
	listed := make(map[string]bool)      // field name -> seen in Counters
	for i := 0; i < v.NumField(); i++ {
		sf := v.Type().Field(i)
		if sf.Type.Kind() != reflect.Int || sf.Name == "Total" || sf.Name == "Established" {
			continue
		}
		v.Field(i).SetInt(int64(i + 1))
		fieldByValue[i+1] = sf.Name
		listed[sf.Name] = false
	}
	names := make(map[string]bool)
	var classes uint64
	for _, c := range Counters {
		field, ok := fieldByValue[*c.Field(&ms)]
		switch {
		case !ok:
			t.Errorf("counter %q does not address a plain int field of MonthStats", c.Name)
		case listed[field]:
			t.Errorf("MonthStats.%s listed twice (again as %q)", field, c.Name)
		default:
			listed[field] = true
		}
		if names[c.Name] {
			t.Errorf("counter name %q used twice", c.Name)
		}
		names[c.Name] = true
		if classes&uint64(c.Class) != 0 {
			t.Errorf("counter %q shares its class bit with another row", c.Name)
		}
		classes |= uint64(c.Class)
	}
	for field, ok := range listed {
		if !ok {
			t.Errorf("MonthStats.%s is missing from Counters", field)
		}
	}
}
